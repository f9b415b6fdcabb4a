"""Parser tests: declarations, statements, expressions, structs."""

import pytest

from repro.glsl import ast_nodes as ast
from repro.glsl.errors import GlslSyntaxError
from repro.glsl.parser import parse


def parse_one(source):
    unit = parse(source)
    assert len(unit.declarations) >= 1
    return unit.declarations[0]


class TestGlobalDeclarations:
    def test_uniform(self):
        decl = parse_one("uniform float u_x;")
        assert isinstance(decl, ast.GlobalDecl)
        assert decl.qualifier == "uniform"
        assert decl.type_name == "float"
        assert decl.declarators[0].name == "u_x"

    def test_attribute_with_precision(self):
        decl = parse_one("attribute highp vec4 a_pos;")
        assert decl.qualifier == "attribute"
        assert decl.precision == "highp"
        assert decl.type_name == "vec4"

    def test_varying(self):
        decl = parse_one("varying vec2 v_uv;")
        assert decl.qualifier == "varying"

    def test_const_with_initializer(self):
        decl = parse_one("const float PI = 3.14159;")
        assert decl.is_const
        assert isinstance(decl.declarators[0].initializer, ast.FloatLiteral)

    def test_multiple_declarators(self):
        decl = parse_one("uniform float a, b, c;")
        assert [d.name for d in decl.declarators] == ["a", "b", "c"]

    def test_array_declarator(self):
        decl = parse_one("uniform vec4 lights[4];")
        assert decl.declarators[0].array_size is not None

    def test_invariant_varying(self):
        decl = parse_one("invariant varying vec2 v;")
        assert decl.is_invariant

    def test_precision_statement(self):
        decl = parse_one("precision mediump float;")
        assert isinstance(decl, ast.PrecisionDecl)
        assert decl.precision == "mediump"

    def test_sampler_uniform(self):
        decl = parse_one("uniform sampler2D u_tex;")
        assert decl.type_name == "sampler2D"


class TestFunctions:
    def test_void_main(self):
        func = parse_one("void main() { }")
        assert isinstance(func, ast.FunctionDef)
        assert func.name == "main"
        assert func.params == []
        assert func.body is not None

    def test_void_param_list(self):
        func = parse_one("void main(void) { }")
        assert func.params == []

    def test_parameters_with_qualifiers(self):
        func = parse_one("float f(in float a, out vec2 b, inout int c) { return a; }")
        directions = [p.direction for p in func.params]
        assert directions == ["in", "out", "inout"]

    def test_prototype(self):
        func = parse_one("float helper(float x);")
        assert func.body is None

    def test_const_param(self):
        func = parse_one("float f(const in float a) { return a; }")
        assert func.params[0].is_const


class TestStatements:
    def source_body(self, body):
        func = parse_one("void main() { " + body + " }")
        return func.body.statements

    def test_declaration_statement(self):
        stmts = self.source_body("float x = 1.0;")
        assert isinstance(stmts[0], ast.DeclStmt)

    def test_if_else(self):
        stmts = self.source_body("if (true) { } else { }")
        node = stmts[0]
        assert isinstance(node, ast.IfStmt)
        assert node.else_branch is not None

    def test_dangling_else_binds_inner(self):
        stmts = self.source_body("if (true) if (false) discard; else discard;")
        outer = stmts[0]
        assert outer.else_branch is None
        assert outer.then_branch.else_branch is not None

    def test_for_loop(self):
        stmts = self.source_body("for (int i = 0; i < 4; i++) { }")
        node = stmts[0]
        assert isinstance(node, ast.ForStmt)
        assert isinstance(node.init, ast.DeclStmt)

    def test_for_loop_empty_clauses(self):
        stmts = self.source_body("for (;;) { break; }")
        node = stmts[0]
        assert node.init is None and node.condition is None and node.update is None

    def test_while(self):
        stmts = self.source_body("while (false) { }")
        assert isinstance(stmts[0], ast.WhileStmt)

    def test_do_while(self):
        stmts = self.source_body("do { } while (false);")
        assert isinstance(stmts[0], ast.DoWhileStmt)

    def test_return_value(self):
        func = parse_one("float f() { return 1.0; }")
        assert isinstance(func.body.statements[0], ast.ReturnStmt)

    def test_break_continue_discard(self):
        stmts = self.source_body("for (;;) { break; } for (;;) { continue; } discard;")
        assert isinstance(stmts[2], ast.DiscardStmt)

    def test_empty_statement(self):
        stmts = self.source_body(";")
        assert isinstance(stmts[0], ast.CompoundStmt)

    def test_constructor_not_mistaken_for_declaration(self):
        stmts = self.source_body("gl_FragColor = vec4(float(1), 0.0, 0.0, 1.0);")
        assert isinstance(stmts[0], ast.ExprStmt)


class TestExpressions:
    def expr(self, text):
        func = parse_one("void main() { x = " + text + "; }")
        return func.body.statements[0].expr.value

    def test_precedence_mul_over_add(self):
        node = self.expr("a + b * c")
        assert node.op == "+"
        assert node.right.op == "*"

    def test_parenthesised(self):
        node = self.expr("(a + b) * c")
        assert node.op == "*"
        assert node.left.op == "+"

    def test_relational_and_logic(self):
        node = self.expr("a < b && c >= d")
        assert node.op == "&&"

    def test_ternary(self):
        node = self.expr("a ? b : c")
        assert isinstance(node, ast.Conditional)

    def test_ternary_right_associative(self):
        node = self.expr("a ? b : c ? d : e")
        assert isinstance(node.if_false, ast.Conditional)

    def test_unary(self):
        node = self.expr("-a + !b")
        assert node.left.op == "-"
        assert node.right.op == "!"

    def test_prefix_postfix(self):
        pre = self.expr("++a")
        post = self.expr("a++")
        assert isinstance(pre, ast.PrefixIncDec)
        assert isinstance(post, ast.PostfixIncDec)

    def test_swizzle_chain(self):
        node = self.expr("v.xyz.xy")
        assert isinstance(node, ast.FieldAccess)
        assert node.field_name == "xy"

    def test_index_and_call(self):
        node = self.expr("texture2D(t, uv[0])")
        assert isinstance(node, ast.Call)
        assert isinstance(node.args[1], ast.IndexAccess)

    def test_assignment_right_associative(self):
        func = parse_one("void main() { a = b = c; }")
        outer = func.body.statements[0].expr
        assert isinstance(outer.value, ast.Assignment)

    def test_compound_assignment(self):
        func = parse_one("void main() { a += 2.0; }")
        assert func.body.statements[0].expr.op == "+="

    def test_comma_expression(self):
        func = parse_one("void main() { a = 1.0, b = 2.0; }")
        assert isinstance(func.body.statements[0].expr, ast.CommaExpr)

    def test_constructor_call(self):
        node = self.expr("vec3(1.0, 2.0, 3.0)")
        assert isinstance(node, ast.Call)
        assert node.callee == "vec3"


#: The binary operators by precedence level, loosest first (spec §5.1).
_LEVELS = [
    ("||",), ("^^",), ("&&",), ("|",), ("^",), ("&",), ("==", "!="),
    ("<", ">", "<=", ">="), ("<<", ">>"), ("+", "-"), ("*", "/", "%"),
]


def _shape(node):
    """A binary-operator tree as fully parenthesised text."""
    if isinstance(node, ast.BinaryOp):
        return f"({_shape(node.left)} {node.op} {_shape(node.right)})"
    return node.name


class TestBinaryPrecedence:
    def expr(self, text):
        func = parse_one("void main() { x = " + text + "; }")
        return _shape(func.body.statements[0].expr.value)

    @pytest.mark.parametrize("lo, hi", [
        (lo, hi) for lo in range(len(_LEVELS))
        for hi in range(lo + 1, len(_LEVELS))
    ])
    def test_tighter_level_groups_first(self, lo, hi):
        for lo_op in _LEVELS[lo]:
            for hi_op in _LEVELS[hi]:
                assert self.expr(f"a {lo_op} b {hi_op} c") == \
                    f"(a {lo_op} (b {hi_op} c))"
                assert self.expr(f"a {hi_op} b {lo_op} c") == \
                    f"((a {hi_op} b) {lo_op} c)"

    @pytest.mark.parametrize("level", range(len(_LEVELS)))
    def test_left_associative_within_a_level(self, level):
        for first in _LEVELS[level]:
            for second in _LEVELS[level]:
                assert self.expr(f"a {first} b {second} c {first} d") == \
                    f"(((a {first} b) {second} c) {first} d)"

    def test_operator_line_is_the_node_line(self):
        func = parse_one("void main() { x = a\n+ b *\nc; }")
        node = func.body.statements[0].expr.value
        assert (node.line, node.right.line) == (2, 2)


class TestStructs:
    def test_struct_definition(self):
        node = parse_one("struct Light { vec3 dir; float power; };")
        assert isinstance(node, ast.StructDef)
        assert node.resolved.fields[0][0] == "dir"

    def test_struct_with_instance(self):
        node = parse_one("struct S { float x; } s;")
        assert isinstance(node, ast.GlobalDecl)
        assert node.declarators[0].name == "s"

    def test_struct_used_as_type(self):
        unit = parse("struct S { float x; };\nuniform S u_s;\nvoid main() { }")
        decl = unit.declarations[1]
        assert decl.type_name == "S"

    def test_struct_member_array(self):
        node = parse_one("struct S { float xs[3]; };")
        assert node.resolved.fields[0][1].is_array()

    def test_local_struct_variable(self):
        unit = parse("struct S { float x; };\nvoid main() { S s; s.x = 1.0; }")
        func = unit.declarations[1]
        assert isinstance(func.body.statements[0], ast.DeclStmt)


class TestSyntaxErrors:
    @pytest.mark.parametrize(
        "bad",
        [
            "void main() {",
            "void main() { float ; }",
            "void main() { x = ; }",
            "uniform;",
            "void main() { if true {} }",
            "void main() { do {} while true; }",
            "float f(float) { return 1.0 }",
        ],
    )
    def test_rejected(self, bad):
        with pytest.raises(GlslSyntaxError):
            parse(bad)

    def test_error_has_line(self):
        try:
            parse("void main() {\n  float x = ;\n}")
        except GlslSyntaxError as exc:
            assert exc.line == 2
        else:  # pragma: no cover
            pytest.fail("expected a syntax error")
