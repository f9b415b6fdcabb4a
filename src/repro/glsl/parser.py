"""Recursive-descent parser for GLSL ES 1.00, with binary operators
parsed by precedence climbing over the spec §5.1 levels.

Builds the AST defined in :mod:`repro.glsl.ast_nodes`.  The parser is
purely syntactic except for one classic C-family necessity: it tracks
declared struct names so that ``MyStruct s;`` inside a function body is
recognised as a declaration rather than an expression statement.

Operators that GLSL ES 1.00 *reserves* (``%``, shifts, bitwise ops and
their assignment forms) are parsed here and rejected with a clear
message by the type checker, which gives better diagnostics than a
bare syntax error.
"""

from __future__ import annotations

from typing import List, Optional, Set

from . import ast_nodes as ast
from .errors import GlslSyntaxError
from .lexer import Token, TokenType, int_literal_value, tokenize
from .types import BUILTIN_TYPE_NAMES, GlslType, array_of, struct_type

_PRECISIONS = ("lowp", "mediump", "highp")
_TYPE_QUALIFIERS = ("const", "attribute", "uniform", "varying")
_ASSIGN_OPS = ("=", "+=", "-=", "*=", "/=", "%=", "<<=", ">>=", "&=", "|=", "^=")


def parse(source: str) -> ast.TranslationUnit:
    """Parse preprocessed GLSL source into a translation unit."""
    return Parser(tokenize(source)).parse_translation_unit()


class Parser:
    """Token-stream cursor with one token of lookahead (peek(k) for
    the few places needing more)."""

    def __init__(self, tokens: List[Token]):
        self.tokens = tokens
        self.pos = 0
        self.struct_names: Set[str] = set()
        self.struct_types: dict = {}

    # ------------------------------------------------------------------
    # Cursor helpers
    # ------------------------------------------------------------------
    def peek(self, offset: int = 0) -> Token:
        # The cursor never passes the EOF token, so only a lookahead
        # needs clamping.
        if offset:
            return self.tokens[min(self.pos + offset, len(self.tokens) - 1)]
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.type != TokenType.EOF:
            self.pos += 1
        return tok

    def check(self, type_: str, value: Optional[str] = None) -> bool:
        tok = self.tokens[self.pos]
        return tok.type == type_ and (value is None or tok.value == value)

    def check_op(self, *values: str) -> bool:
        tok = self.tokens[self.pos]
        return tok.type == TokenType.OP and tok.value in values

    def check_kw(self, *values: str) -> bool:
        tok = self.tokens[self.pos]
        return tok.type == TokenType.KEYWORD and tok.value in values

    def match_op(self, *values: str) -> Optional[Token]:
        if self.check_op(*values):
            return self.advance()
        return None

    def match_kw(self, *values: str) -> Optional[Token]:
        if self.check_kw(*values):
            return self.advance()
        return None

    def expect_op(self, value: str) -> Token:
        if not self.check_op(value):
            tok = self.peek()
            raise GlslSyntaxError(
                f"expected '{value}' but found '{tok.value or '<eof>'}'",
                line=tok.line,
                column=tok.column,
            )
        return self.advance()

    def expect_ident(self) -> Token:
        if not self.check(TokenType.IDENT):
            tok = self.peek()
            raise GlslSyntaxError(
                f"expected identifier but found '{tok.value or '<eof>'}'",
                line=tok.line,
                column=tok.column,
            )
        return self.advance()

    def error(self, message: str) -> GlslSyntaxError:
        tok = self.peek()
        return GlslSyntaxError(message, line=tok.line, column=tok.column)

    # ------------------------------------------------------------------
    # Translation unit
    # ------------------------------------------------------------------
    def parse_translation_unit(self) -> ast.TranslationUnit:
        unit = ast.TranslationUnit(line=1)
        while not self.check(TokenType.EOF):
            unit.declarations.append(self.parse_external_declaration())
        return unit

    def parse_external_declaration(self) -> ast.Node:
        tok = self.peek()
        if self.check_kw("precision"):
            return self.parse_precision_decl()
        if self.check_kw("struct"):
            return self.parse_struct_and_maybe_decl()

        is_invariant = bool(self.match_kw("invariant"))
        qualifier = None
        is_const = False
        qual_tok = self.match_kw(*_TYPE_QUALIFIERS)
        if qual_tok:
            if qual_tok.value == "const":
                is_const = True
            else:
                qualifier = qual_tok.value
        precision = None
        prec_tok = self.match_kw(*_PRECISIONS)
        if prec_tok:
            precision = prec_tok.value

        if self.check_kw("struct"):
            node = self.parse_struct_and_maybe_decl()
            if isinstance(node, ast.GlobalDecl):
                node.qualifier = qualifier
                node.is_const = is_const
                node.is_invariant = is_invariant
            return node

        type_name = self.parse_type_name()

        # A bare `void main() {...}` or prototype.
        name_tok = self.expect_ident()
        if self.check_op("(") and qualifier is None and not is_const:
            return self.parse_function_rest(type_name, name_tok)

        decl = ast.GlobalDecl(
            qualifier=qualifier,
            is_const=is_const,
            is_invariant=is_invariant,
            precision=precision,
            type_name=type_name,
            line=tok.line,
        )
        decl.struct = self.struct_types.get(type_name)
        decl.declarators.append(self.parse_declarator_rest(name_tok))
        while self.match_op(","):
            next_name = self.expect_ident()
            decl.declarators.append(self.parse_declarator_rest(next_name))
        self.expect_op(";")
        return decl

    def parse_precision_decl(self) -> ast.PrecisionDecl:
        tok = self.advance()  # 'precision'
        prec = self.match_kw(*_PRECISIONS)
        if not prec:
            raise self.error("expected precision qualifier")
        type_name = self.parse_type_name()
        self.expect_op(";")
        return ast.PrecisionDecl(precision=prec.value, type_name=type_name, line=tok.line)

    def parse_type_name(self) -> str:
        tok = self.peek()
        if tok.type == TokenType.KEYWORD and tok.value in BUILTIN_TYPE_NAMES:
            self.advance()
            return tok.value
        if tok.type == TokenType.IDENT and tok.value in self.struct_names:
            self.advance()
            return tok.value
        raise self.error(f"expected type name but found '{tok.value or '<eof>'}'")

    def parse_struct_and_maybe_decl(self) -> ast.Node:
        tok = self.advance()  # 'struct'
        name_tok = self.expect_ident()
        self.expect_op("{")
        fields = []
        while not self.check_op("}"):
            self.match_kw(*_PRECISIONS)
            member_type_name = self.parse_type_name()
            member_type = self._named_type(member_type_name)
            while True:
                member_name = self.expect_ident().value
                if self.match_op("["):
                    size_expr = self.parse_constant_int()
                    self.expect_op("]")
                    fields.append((member_name, array_of(member_type, size_expr)))
                else:
                    fields.append((member_name, member_type))
                if not self.match_op(","):
                    break
            self.expect_op(";")
        self.expect_op("}")
        stype = struct_type(name_tok.value, fields)
        self.struct_names.add(name_tok.value)
        self.struct_types[name_tok.value] = stype

        if self.check_op(";"):
            self.advance()
            return ast.StructDef(name=name_tok.value, resolved=stype, line=tok.line)

        # struct S {...} instance;
        decl = ast.GlobalDecl(type_name=name_tok.value, line=tok.line, struct=stype)
        while True:
            inst = self.expect_ident()
            decl.declarators.append(self.parse_declarator_rest(inst))
            if not self.match_op(","):
                break
        self.expect_op(";")
        return decl

    def _named_type(self, name: str) -> GlslType:
        if name in BUILTIN_TYPE_NAMES:
            return BUILTIN_TYPE_NAMES[name]
        if name in self.struct_types:
            return self.struct_types[name]
        raise self.error(f"unknown type '{name}'")

    def parse_constant_int(self) -> int:
        """Parse an integer literal used as an array size at parse time.

        General constant expressions in array sizes are resolved by the
        type checker; at parse time we accept a literal or identifier
        and defer, but struct members need the literal form.
        """
        tok = self.peek()
        if tok.type == TokenType.INTCONST:
            self.advance()
            return int_literal_value(tok.value)
        raise self.error("expected integer constant")

    # ------------------------------------------------------------------
    # Functions
    # ------------------------------------------------------------------
    def parse_function_rest(self, return_type: str, name_tok: Token) -> ast.FunctionDef:
        self.expect_op("(")
        params: List[ast.Param] = []
        if not self.check_op(")"):
            if self.check_kw("void") and self.peek(1).value == ")":
                self.advance()
            else:
                params.append(self.parse_param())
                while self.match_op(","):
                    params.append(self.parse_param())
        self.expect_op(")")
        func = ast.FunctionDef(
            name=name_tok.value,
            return_type_name=return_type,
            params=params,
            line=name_tok.line,
        )
        if self.match_op(";"):
            return func  # prototype
        func.body = self.parse_compound_stmt()
        return func

    def parse_param(self) -> ast.Param:
        tok = self.peek()
        is_const = bool(self.match_kw("const"))
        direction = "in"
        dir_tok = self.match_kw("in", "out", "inout")
        if dir_tok:
            direction = dir_tok.value
        precision = None
        prec_tok = self.match_kw(*_PRECISIONS)
        if prec_tok:
            precision = prec_tok.value
        type_name = self.parse_type_name()
        name = ""
        if self.check(TokenType.IDENT):
            name = self.advance().value
        array_size = None
        if self.match_op("["):
            array_size = self.parse_conditional_expr()
            self.expect_op("]")
        return ast.Param(
            name=name,
            type_name=type_name,
            direction=direction,
            array_size=array_size,
            precision=precision,
            is_const=is_const,
            line=tok.line,
        )

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------
    def parse_compound_stmt(self) -> ast.CompoundStmt:
        open_tok = self.expect_op("{")
        block = ast.CompoundStmt(line=open_tok.line)
        while not self.check_op("}"):
            if self.check(TokenType.EOF):
                raise self.error("unterminated block")
            block.statements.append(self.parse_statement())
        self.expect_op("}")
        return block

    def parse_statement(self) -> ast.Stmt:
        tok = self.tokens[self.pos]
        if tok.type == TokenType.OP:
            if tok.value == "{":
                return self.parse_compound_stmt()
            if tok.value == ";":
                self.pos += 1
                return ast.CompoundStmt(line=tok.line)  # empty statement
        elif tok.type == TokenType.KEYWORD:
            keyword = tok.value
            if keyword == "if":
                return self.parse_if()
            if keyword == "for":
                return self.parse_for()
            if keyword == "while":
                return self.parse_while()
            if keyword == "do":
                return self.parse_do_while()
            if keyword == "return":
                self.pos += 1
                value = None
                if not self.check_op(";"):
                    value = self.parse_expression()
                self.expect_op(";")
                return ast.ReturnStmt(value=value, line=tok.line)
            if keyword in self._JUMPS:
                self.pos += 1
                self.expect_op(";")
                return self._JUMPS[keyword](line=tok.line)
        if self._starts_declaration():
            return self.parse_declaration_stmt()
        expr = self.parse_expression()
        self.expect_op(";")
        return ast.ExprStmt(expr=expr, line=tok.line)

    #: Jump statements that take no operand.
    _JUMPS = {
        "break": ast.BreakStmt,
        "continue": ast.ContinueStmt,
        "discard": ast.DiscardStmt,
    }

    def _starts_declaration(self) -> bool:
        tok = self.peek()
        if tok.type == TokenType.KEYWORD:
            if tok.value in _PRECISIONS or tok.value == "const":
                return True
            if tok.value in BUILTIN_TYPE_NAMES:
                # `float(x)` is a constructor call, not a declaration;
                # a declaration is followed by an identifier.
                return self.peek(1).type == TokenType.IDENT
        if tok.type == TokenType.IDENT and tok.value in self.struct_names:
            return self.peek(1).type == TokenType.IDENT
        return False

    def parse_declaration_stmt(self) -> ast.DeclStmt:
        tok = self.peek()
        is_const = bool(self.match_kw("const"))
        precision = None
        prec_tok = self.match_kw(*_PRECISIONS)
        if prec_tok:
            precision = prec_tok.value
        type_name = self.parse_type_name()
        decl = ast.DeclStmt(
            type_name=type_name,
            is_const=is_const,
            precision=precision,
            line=tok.line,
        )
        decl.struct = self.struct_types.get(type_name)
        while True:
            name_tok = self.expect_ident()
            decl.declarators.append(self.parse_declarator_rest(name_tok))
            if not self.match_op(","):
                break
        self.expect_op(";")
        return decl

    def parse_declarator_rest(self, name_tok: Token) -> ast.Declarator:
        declarator = ast.Declarator(name=name_tok.value, line=name_tok.line)
        if self.match_op("["):
            declarator.array_size = self.parse_conditional_expr()
            self.expect_op("]")
        if self.match_op("="):
            declarator.initializer = self.parse_assignment_expr()
        return declarator

    def parse_if(self) -> ast.IfStmt:
        tok = self.advance()
        self.expect_op("(")
        condition = self.parse_expression()
        self.expect_op(")")
        then_branch = self.parse_statement()
        else_branch = None
        if self.match_kw("else"):
            else_branch = self.parse_statement()
        return ast.IfStmt(
            condition=condition,
            then_branch=then_branch,
            else_branch=else_branch,
            line=tok.line,
        )

    def parse_for(self) -> ast.ForStmt:
        tok = self.advance()
        self.expect_op("(")
        init: Optional[ast.Stmt] = None
        if self.check_op(";"):
            self.advance()
        elif self._starts_declaration():
            init = self.parse_declaration_stmt()
        else:
            init = ast.ExprStmt(expr=self.parse_expression(), line=self.peek().line)
            self.expect_op(";")
        condition = None
        if not self.check_op(";"):
            condition = self.parse_expression()
        self.expect_op(";")
        update = None
        if not self.check_op(")"):
            update = self.parse_expression()
        self.expect_op(")")
        body = self.parse_statement()
        return ast.ForStmt(
            init=init, condition=condition, update=update, body=body, line=tok.line
        )

    def parse_while(self) -> ast.WhileStmt:
        tok = self.advance()
        self.expect_op("(")
        condition = self.parse_expression()
        self.expect_op(")")
        body = self.parse_statement()
        return ast.WhileStmt(condition=condition, body=body, line=tok.line)

    def parse_do_while(self) -> ast.DoWhileStmt:
        tok = self.advance()
        body = self.parse_statement()
        if not self.match_kw("while"):
            raise self.error("expected 'while' after do-block")
        self.expect_op("(")
        condition = self.parse_expression()
        self.expect_op(")")
        self.expect_op(";")
        return ast.DoWhileStmt(body=body, condition=condition, line=tok.line)

    # ------------------------------------------------------------------
    # Expressions (precedence climbing, spec §5.1 table)
    # ------------------------------------------------------------------
    def parse_expression(self) -> ast.Expr:
        expr = self.parse_assignment_expr()
        while self.check_op(","):
            tok = self.advance()
            right = self.parse_assignment_expr()
            expr = ast.CommaExpr(left=expr, right=right, line=tok.line)
        return expr

    def parse_assignment_expr(self) -> ast.Expr:
        left = self.parse_conditional_expr()
        if self.check_op(*_ASSIGN_OPS):
            tok = self.advance()
            value = self.parse_assignment_expr()
            return ast.Assignment(op=tok.value, target=left, value=value, line=tok.line)
        return left

    def parse_conditional_expr(self) -> ast.Expr:
        condition = self.parse_binary_expr(0)
        if self.check_op("?"):
            tok = self.advance()
            if_true = self.parse_assignment_expr()
            self.expect_op(":")
            if_false = self.parse_assignment_expr()
            return ast.Conditional(
                condition=condition, if_true=if_true, if_false=if_false, line=tok.line
            )
        return condition

    #: Binary operator precedence levels, loosest first.
    _BINARY_LEVELS = [
        ("||",),
        ("^^",),
        ("&&",),
        ("|",),
        ("^",),
        ("&",),
        ("==", "!="),
        ("<", ">", "<=", ">="),
        ("<<", ">>"),
        ("+", "-"),
        ("*", "/", "%"),
    ]

    #: Binary operator -> its index in :attr:`_BINARY_LEVELS`.
    _BINARY_LEVEL_OF = {
        op: level for level, ops in enumerate(_BINARY_LEVELS) for op in ops
    }

    def parse_binary_expr(self, min_level: int) -> ast.Expr:
        """Precedence climbing: the longest left-associative chain of
        operators at ``min_level`` or tighter, each right operand
        parsed one level tighter than its operator."""
        expr = self.parse_unary_expr()
        levels = self._BINARY_LEVEL_OF
        while True:
            tok = self.tokens[self.pos]
            if tok.type != TokenType.OP:
                return expr
            level = levels.get(tok.value)
            if level is None or level < min_level:
                return expr
            self.pos += 1
            right = self.parse_binary_expr(level + 1)
            expr = ast.BinaryOp(op=tok.value, left=expr, right=right, line=tok.line)

    def parse_unary_expr(self) -> ast.Expr:
        tok = self.tokens[self.pos]
        if tok.type == TokenType.OP:
            if tok.value in ("++", "--"):
                self.pos += 1
                operand = self.parse_unary_expr()
                return ast.PrefixIncDec(op=tok.value, operand=operand, line=tok.line)
            if tok.value in ("+", "-", "!", "~"):
                self.pos += 1
                operand = self.parse_unary_expr()
                return ast.UnaryOp(op=tok.value, operand=operand, line=tok.line)
        return self.parse_postfix_expr()

    def parse_postfix_expr(self) -> ast.Expr:
        expr = self.parse_primary_expr()
        while True:
            tok = self.tokens[self.pos]
            if tok.type != TokenType.OP:
                return expr
            if tok.value == "[":
                self.pos += 1
                index = self.parse_expression()
                self.expect_op("]")
                expr = ast.IndexAccess(base=expr, index=index, line=tok.line)
            elif tok.value == ".":
                self.pos += 1
                # Field name may lexically collide with a keyword-ish
                # token only if it is an identifier; swizzles always are.
                field_tok = self.expect_ident()
                expr = ast.FieldAccess(
                    base=expr, field_name=field_tok.value, line=tok.line
                )
            elif tok.value in ("++", "--"):
                self.pos += 1
                expr = ast.PostfixIncDec(op=tok.value, operand=expr, line=tok.line)
            else:
                return expr

    def parse_primary_expr(self) -> ast.Expr:
        tok = self.tokens[self.pos]
        kind = tok.type
        if kind == TokenType.IDENT:
            self.pos += 1
            if self.check_op("("):
                return self.parse_call_rest(tok)
            return ast.Identifier(name=tok.value, line=tok.line)
        if kind == TokenType.INTCONST:
            self.pos += 1
            return ast.IntLiteral(value=int_literal_value(tok.value), line=tok.line)
        if kind == TokenType.FLOATCONST:
            self.pos += 1
            return ast.FloatLiteral(value=float(tok.value), line=tok.line)
        if kind == TokenType.BOOLCONST:
            self.pos += 1
            return ast.BoolLiteral(value=tok.value == "true", line=tok.line)
        if kind == TokenType.OP and tok.value == "(":
            self.pos += 1
            expr = self.parse_expression()
            self.expect_op(")")
            return expr
        if kind == TokenType.KEYWORD and tok.value in BUILTIN_TYPE_NAMES:
            # Constructor: vec4(...), float(...), mat3(...)
            self.pos += 1
            return self.parse_call_rest(tok)
        raise self.error(f"unexpected token '{tok.value or '<eof>'}' in expression")

    def parse_call_rest(self, callee_tok: Token) -> ast.Call:
        self.expect_op("(")
        args: List[ast.Expr] = []
        if not self.check_op(")"):
            if self.check_kw("void") and self.peek(1).value == ")":
                self.advance()
            else:
                args.append(self.parse_assignment_expr())
                while self.match_op(","):
                    args.append(self.parse_assignment_expr())
        self.expect_op(")")
        return ast.Call(callee=callee_tok.value, args=args, line=callee_tok.line)
