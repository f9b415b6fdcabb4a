"""Pretty-printer tests: parse -> print -> parse is a fixed point."""

import pytest

from repro.glsl import ast_nodes as ast
from repro.glsl.optimize import optimize
from repro.glsl.parser import parse
from repro.glsl.printer import print_expr, print_stmt, print_unit


def roundtrip(source: str) -> str:
    """print(parse(source)); parsing the result must not change it."""
    once = print_unit(parse(source))
    twice = print_unit(parse(once))
    assert once == twice, "printer is not a fixed point"
    return once


class TestExpressions:
    def expr_text(self, text):
        unit = parse("void main() { x = " + text + "; }")
        return print_expr(unit.declarations[0].body.statements[0].expr.value)

    def test_literals(self):
        assert self.expr_text("42") == "42"
        assert self.expr_text("1.5") == "1.5"
        assert self.expr_text("2.0") == "2.0"
        assert self.expr_text("true") == "true"

    def test_precedence_no_redundant_parens(self):
        assert self.expr_text("a + b * c") == "a + b * c"
        assert self.expr_text("(a + b) * c") == "(a + b) * c"

    def test_left_associativity_preserved(self):
        assert self.expr_text("a - b - c") == "a - b - c"
        assert self.expr_text("a - (b - c)") == "a - (b - c)"

    def test_unary_and_postfix(self):
        assert self.expr_text("-a + !b") == "-a + !b"
        assert self.expr_text("-(a + b)") == "-(a + b)"
        assert self.expr_text("a++") == "a++"

    def test_ternary(self):
        assert self.expr_text("a ? b : c") == "a ? b : c"

    def test_call_swizzle_index(self):
        assert self.expr_text("texture2D(t, uv.xy)[0]") == "texture2D(t, uv.xy)[0]"

    def test_nested_swizzle(self):
        assert self.expr_text("v.xyz.xy") == "v.xyz.xy"


class TestStatements:
    def test_declaration(self):
        text = roundtrip("void main() { const float x = 1.0; }")
        assert "const float x = 1.0;" in text

    def test_if_else(self):
        text = roundtrip(
            "void main() { if (a) { b = 1.0; } else { b = 2.0; } }"
        )
        assert "if (a)" in text and "else" in text

    def test_for_loop(self):
        text = roundtrip(
            "void main() { for (int i = 0; i < 4; i++) { x += 1.0; } }"
        )
        assert "for (int i = 0; i < 4; i++)" in text

    def test_while_and_do(self):
        text = roundtrip(
            "void main() { while (a) { break; } do { continue; } while (b); }"
        )
        assert "while (a)" in text and "do" in text

    def test_braces_added_to_single_statements(self):
        text = roundtrip("void main() { if (a) discard; }")
        assert "{" in text.split("if (a)")[1]

    def test_empty_block(self):
        roundtrip("void main() { if (a) { } }")


class TestDeclarations:
    def test_globals(self):
        text = roundtrip(
            "precision mediump float;\n"
            "uniform sampler2D u_tex;\n"
            "attribute highp vec4 a_pos;\n"
            "varying vec2 v_uv;\n"
            "const int N = 4;\n"
            "uniform float u_weights[3];\n"
            "void main() { }"
        )
        assert "uniform sampler2D u_tex;" in text
        assert "uniform float u_weights[3];" in text

    def test_struct(self):
        text = roundtrip(
            "struct Light { vec3 dir; float power; };\n"
            "uniform Light u_light;\n"
            "void main() { }"
        )
        assert "struct Light {" in text

    def test_function_with_qualified_params(self):
        text = roundtrip(
            "float f(const in float a, out vec2 b, inout int c) { return a; }\n"
            "void main() { }"
        )
        assert "out vec2 b" in text and "inout int c" in text

    def test_prototype(self):
        text = roundtrip("float helper(float x);\nvoid main() { }")
        assert "float helper(float x);" in text


class TestPrinterAfterOptimizer:
    def test_folded_tree_prints_folded_source(self):
        unit = optimize(parse(
            "void main() { float x = 2.0 * 3.0; if (true) { x = 1.0; } }"
        ))
        text = print_unit(unit)
        assert "6.0" in text
        assert "2.0 * 3.0" not in text
        assert "if" not in text  # branch pruned to a bare block

    def test_generated_kernels_roundtrip(self):
        from repro.core.codegen import generate_kernel_source

        source = generate_kernel_source(
            "rt", [("a", "int32"), ("b", "float32")], "float32",
            "result = float(int(a)) + b * u_k;",
            uniforms=[("u_k", "float")],
        )
        roundtrip(source.fragment)
        roundtrip(source.vertex)


class TestStructuralRoundTrip:
    """parse -> print -> parse must reproduce the identical AST (not
    just a textual fixed point): the shrinker and the golden corpus
    both assume printed sources mean exactly what the tree meant."""

    SOURCES = [
        "void main() { gl_FragColor = vec4(1.0, 0.5, 0.25, 1.0); }",
        (
            "precision highp float;\n"
            "varying vec2 v_uv;\n"
            "uniform sampler2D u_t;\n"
            "float helper(float x, out float y) {\n"
            "    y = fract(x);\n"
            "    for (int i = 0; i < 4; i++) {\n"
            "        if (x > 0.5) { break; } else { x += 0.125; }\n"
            "    }\n"
            "    return x * 2.0;\n"
            "}\n"
            "void main() {\n"
            "    float aux = 0.0;\n"
            "    mat3 m = mat3(1.0);\n"
            "    vec3 v = m * vec3(v_uv, helper(v_uv.x, aux));\n"
            "    gl_FragColor = texture2D(u_t, v.xy) + vec4(aux);\n"
            "}\n"
        ),
        (
            "struct Light { vec3 dir; float power; };\n"
            "uniform Light u_light;\n"
            "void main() {\n"
            "    float a[3];\n"
            "    a[0] = u_light.power;\n"
            "    int j = 1;\n"
            "    gl_FragColor = vec4(a[j], -a[0], float(j != 2), 1.0);\n"
            "}\n"
        ),
    ]

    @pytest.mark.parametrize("source", SOURCES)
    def test_reparse_yields_identical_ast(self, source):
        first = parse(source)
        second = parse(print_unit(first))
        assert ast.structurally_equal(first, second)

    def test_else_if_chain_stays_unbraced(self):
        source = ("void main() { if (a) { x = 1.0; } "
                  "else if (b) { x = 2.0; } else { x = 3.0; } }")
        first = parse(source)
        printed = print_unit(first)
        assert "else if (b)" in printed
        assert ast.structurally_equal(first, parse(printed))

    def test_structurally_equal_detects_differences(self):
        a = parse("void main() { x = 1.0; }")
        b = parse("void main() { x = 2.0; }")
        assert not ast.structurally_equal(a, b)

    def test_generated_fuzz_programs_roundtrip_structurally(self):
        import random

        from repro.testing import generate_program
        from repro.glsl.preprocessor import preprocess

        for i in range(5):
            source = generate_program(random.Random(f"printer:{i}"))
            first = parse(preprocess(source).source)
            second = parse(print_unit(first))
            assert ast.structurally_equal(first, second)


def _assert_roundtrips(sources):
    from repro.glsl.preprocessor import preprocess

    for source in sources:
        first = parse(preprocess(source).source)
        second = parse(print_unit(first))
        assert ast.structurally_equal(first, second), source


class TestRoundTripOverSources:
    """``parse(print_unit(parse(s)))`` equals ``parse(s)`` (line numbers
    aside) over every source the front end sees in practice."""

    def test_golden_corpus(self):
        from repro.testing.corpus import build_entries

        entries = build_entries()
        _assert_roundtrips([e.fragment for e in entries]
                           + [e.vertex for e in entries])

    def test_fuzz_programs(self):
        from repro.testing import generate_program
        from repro.testing.fuzz import program_rng

        _assert_roundtrips(
            generate_program(program_rng(0, i)) for i in range(300)
        )

    def test_library_kernel_sources(self):
        from glsl_helpers import library_kernel_sources

        _assert_roundtrips(
            source for family in library_kernel_sources().values()
            for source, __ in family
        )
