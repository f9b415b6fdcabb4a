"""Vectorised executor tests (run on the IR executor): expressions,
control flow, divergence, functions."""

import numpy as np
import pytest

from repro.glsl import compile_shader
from repro.glsl.ir import IRExecutor
from repro.glsl.errors import GlslLimitError
from repro.glsl.types import FLOAT, VEC2
from repro.glsl.values import Value

from glsl_helpers import run_fragment_expr, run_fragment_main


class TestArithmetic:
    def test_float_add(self):
        assert run_fragment_expr("1.5 + 2.25")[0] == 3.75

    def test_precedence(self):
        assert run_fragment_expr("2.0 + 3.0 * 4.0")[0] == 14.0

    def test_unary_minus(self):
        assert run_fragment_expr("-(3.0) + 1.0")[0] == -2.0

    def test_int_arithmetic(self):
        env, __ = run_fragment_main(
            "int a = 7; int b = 2; int c = a / b; "
            "gl_FragColor = vec4(float(c), 0.0, 0.0, 1.0);"
        )
        assert env["gl_FragColor"].data[0, 0] == 3.0

    def test_int_division_truncates_toward_zero(self):
        env, __ = run_fragment_main(
            "int c = (-7) / 2; gl_FragColor = vec4(float(c), 0.0, 0.0, 1.0);"
        )
        assert env["gl_FragColor"].data[0, 0] == -3.0

    def test_division_by_zero_int_defined_as_zero(self):
        env, __ = run_fragment_main(
            "int z = 0; int c = 5 / z; gl_FragColor = vec4(float(c), 0.0, 0.0, 1.0);"
        )
        assert env["gl_FragColor"].data[0, 0] == 0.0

    def test_vector_componentwise(self):
        env, __ = run_fragment_main(
            "vec4 v = vec4(1.0, 2.0, 3.0, 4.0) * vec4(2.0); gl_FragColor = v;"
        )
        assert list(env["gl_FragColor"].data[0]) == [2.0, 4.0, 6.0, 8.0]

    def test_scalar_vector_broadcast(self):
        env, __ = run_fragment_main("gl_FragColor = 2.0 * vec4(1.0, 2.0, 3.0, 4.0);")
        assert list(env["gl_FragColor"].data[0]) == [2.0, 4.0, 6.0, 8.0]

    def test_matrix_vector_product(self):
        env, __ = run_fragment_main(
            "mat2 m = mat2(1.0, 2.0, 3.0, 4.0);"  # columns (1,2) and (3,4)
            "vec2 v = m * vec2(1.0, 1.0);"
            "gl_FragColor = vec4(v, 0.0, 1.0);"
        )
        assert list(env["gl_FragColor"].data[0, :2]) == [4.0, 6.0]

    def test_vector_matrix_product(self):
        env, __ = run_fragment_main(
            "mat2 m = mat2(1.0, 2.0, 3.0, 4.0);"
            "vec2 v = vec2(1.0, 1.0) * m;"
            "gl_FragColor = vec4(v, 0.0, 1.0);"
        )
        assert list(env["gl_FragColor"].data[0, :2]) == [3.0, 7.0]

    def test_matrix_matrix_product(self):
        env, __ = run_fragment_main(
            "mat2 a = mat2(1.0, 2.0, 3.0, 4.0);"
            "mat2 b = mat2(5.0, 6.0, 7.0, 8.0);"
            "mat2 c = a * b;"
            "gl_FragColor = vec4(c[0], c[1]);"
        )
        # c[0] = a * b_col0 = (1,2)*5 + (3,4)*6 = (23, 34)
        assert list(env["gl_FragColor"].data[0]) == [23.0, 34.0, 31.0, 46.0]

    def test_compound_assignment(self):
        env, __ = run_fragment_main(
            "float x = 1.0; x += 2.0; x *= 3.0; x -= 1.0; x /= 2.0;"
            "gl_FragColor = vec4(x, 0.0, 0.0, 1.0);"
        )
        assert env["gl_FragColor"].data[0, 0] == 4.0

    def test_increment_decrement(self):
        env, __ = run_fragment_main(
            "float x = 1.0; float pre = ++x; float post = x++;"
            "gl_FragColor = vec4(pre, post, x, 1.0);"
        )
        assert list(env["gl_FragColor"].data[0, :3]) == [2.0, 2.0, 3.0]


class TestLogicAndComparison:
    def test_relational(self):
        assert run_fragment_expr("1.0 < 2.0 ? 1.0 : 0.0")[0] == 1.0
        assert run_fragment_expr("2.0 <= 1.0 ? 1.0 : 0.0")[0] == 0.0

    def test_equality_vectors(self):
        assert run_fragment_expr(
            "vec2(1.0, 2.0) == vec2(1.0, 2.0) ? 1.0 : 0.0"
        )[0] == 1.0
        assert run_fragment_expr(
            "vec2(1.0, 2.0) != vec2(1.0, 3.0) ? 1.0 : 0.0"
        )[0] == 1.0

    def test_logical_ops(self):
        assert run_fragment_expr("(true && false) ? 1.0 : 0.0")[0] == 0.0
        assert run_fragment_expr("(true || false) ? 1.0 : 0.0")[0] == 1.0
        assert run_fragment_expr("(true ^^ true) ? 1.0 : 0.0")[0] == 0.0
        assert run_fragment_expr("(!false) ? 1.0 : 0.0")[0] == 1.0

    def test_short_circuit_side_effects(self):
        # The rhs of && must not execute when the lhs is false.
        env, __ = run_fragment_main(
            "float x = 0.0;"
            "bool b = (x > 1.0) && (++x > 0.0);"
            "gl_FragColor = vec4(x, b ? 1.0 : 0.0, 0.0, 1.0);"
        )
        assert env["gl_FragColor"].data[0, 0] == 0.0

    def test_short_circuit_or(self):
        env, __ = run_fragment_main(
            "float x = 0.0;"
            "bool b = true || (++x > 0.0);"
            "gl_FragColor = vec4(x, b ? 1.0 : 0.0, 0.0, 1.0);"
        )
        assert env["gl_FragColor"].data[0, 0] == 0.0
        assert env["gl_FragColor"].data[0, 1] == 1.0


class TestSwizzlesAndIndexing:
    def test_swizzle_read(self):
        env, __ = run_fragment_main(
            "vec4 v = vec4(1.0, 2.0, 3.0, 4.0);"
            "gl_FragColor = v.wzyx;"
        )
        assert list(env["gl_FragColor"].data[0]) == [4.0, 3.0, 2.0, 1.0]

    def test_swizzle_write(self):
        env, __ = run_fragment_main(
            "vec4 v = vec4(0.0); v.xz = vec2(1.0, 2.0); gl_FragColor = v;"
        )
        assert list(env["gl_FragColor"].data[0]) == [1.0, 0.0, 2.0, 0.0]

    def test_single_component_write(self):
        env, __ = run_fragment_main(
            "vec4 v = vec4(0.0); v.y = 5.0; gl_FragColor = v;"
        )
        assert env["gl_FragColor"].data[0, 1] == 5.0

    def test_vector_index_read_write(self):
        env, __ = run_fragment_main(
            "vec4 v = vec4(0.0); v[2] = 7.0; float x = v[2];"
            "gl_FragColor = vec4(x, 0.0, 0.0, 1.0);"
        )
        assert env["gl_FragColor"].data[0, 0] == 7.0

    def test_array_dynamic_index(self):
        env, __ = run_fragment_main(
            "float xs[4];"
            "for (int i = 0; i < 4; i++) { xs[i] = float(i) * 10.0; }"
            "gl_FragColor = vec4(xs[1], xs[3], 0.0, 1.0);"
        )
        assert list(env["gl_FragColor"].data[0, :2]) == [10.0, 30.0]

    def test_matrix_column_access(self):
        env, __ = run_fragment_main(
            "mat2 m = mat2(1.0, 2.0, 3.0, 4.0);"
            "gl_FragColor = vec4(m[0], m[1]);"
        )
        assert list(env["gl_FragColor"].data[0]) == [1.0, 2.0, 3.0, 4.0]

    def test_assignment_copies_not_aliases(self):
        env, __ = run_fragment_main(
            "vec2 a = vec2(1.0, 2.0); vec2 b = a; b.x = 9.0;"
            "gl_FragColor = vec4(a, b);"
        )
        assert list(env["gl_FragColor"].data[0]) == [1.0, 2.0, 9.0, 2.0]


class TestControlFlowUniform:
    def test_if_taken(self):
        env, __ = run_fragment_main(
            "float x = 0.0; if (true) { x = 1.0; } "
            "gl_FragColor = vec4(x, 0.0, 0.0, 1.0);"
        )
        assert env["gl_FragColor"].data[0, 0] == 1.0

    def test_if_else(self):
        env, __ = run_fragment_main(
            "float x = 0.0; if (false) { x = 1.0; } else { x = 2.0; }"
            "gl_FragColor = vec4(x, 0.0, 0.0, 1.0);"
        )
        assert env["gl_FragColor"].data[0, 0] == 2.0

    def test_for_loop_sum(self):
        env, __ = run_fragment_main(
            "float acc = 0.0;"
            "for (int i = 0; i < 10; i++) { acc += float(i); }"
            "gl_FragColor = vec4(acc, 0.0, 0.0, 1.0);"
        )
        assert env["gl_FragColor"].data[0, 0] == 45.0

    def test_while_loop(self):
        env, __ = run_fragment_main(
            "float x = 1.0; while (x < 100.0) { x *= 2.0; }"
            "gl_FragColor = vec4(x, 0.0, 0.0, 1.0);"
        )
        assert env["gl_FragColor"].data[0, 0] == 128.0

    def test_do_while_runs_once(self):
        env, __ = run_fragment_main(
            "float x = 0.0; do { x += 1.0; } while (false);"
            "gl_FragColor = vec4(x, 0.0, 0.0, 1.0);"
        )
        assert env["gl_FragColor"].data[0, 0] == 1.0

    def test_break(self):
        env, __ = run_fragment_main(
            "float acc = 0.0;"
            "for (int i = 0; i < 100; i++) { if (i == 3) { break; } acc += 1.0; }"
            "gl_FragColor = vec4(acc, 0.0, 0.0, 1.0);"
        )
        assert env["gl_FragColor"].data[0, 0] == 3.0

    def test_continue(self):
        env, __ = run_fragment_main(
            "float acc = 0.0;"
            "for (int i = 0; i < 10; i++) { if (i < 5) { continue; } acc += 1.0; }"
            "gl_FragColor = vec4(acc, 0.0, 0.0, 1.0);"
        )
        assert env["gl_FragColor"].data[0, 0] == 5.0

    def test_nested_loops(self):
        env, __ = run_fragment_main(
            "float acc = 0.0;"
            "for (int i = 0; i < 3; i++) {"
            "  for (int j = 0; j < 4; j++) { acc += 1.0; }"
            "}"
            "gl_FragColor = vec4(acc, 0.0, 0.0, 1.0);"
        )
        assert env["gl_FragColor"].data[0, 0] == 12.0

    def test_loop_iteration_cap(self):
        source = """
        precision highp float;
        void main() {
            float x = 0.0;
            while (true) { x += 1.0; }
            gl_FragColor = vec4(x);
        }
        """
        checked = compile_shader(source, "fragment")
        interp = IRExecutor(checked, max_loop_iterations=100)
        with pytest.raises(GlslLimitError):
            interp.execute(1, {})


class TestDivergence:
    """Non-uniform control flow over a fragment batch."""

    def presets(self, values):
        return {
            "v_x": Value(FLOAT, np.asarray(values, dtype=np.float64)),
        }

    def test_divergent_if(self):
        env, __ = run_fragment_main(
            "float r = 0.0;"
            "if (v_x > 1.5) { r = 10.0; } else { r = 20.0; }"
            "gl_FragColor = vec4(r, 0.0, 0.0, 1.0);",
            n=4,
            presets=self.presets([0.0, 1.0, 2.0, 3.0]),
            decls="varying float v_x;",
        )
        assert list(env["gl_FragColor"].data[:, 0]) == [20.0, 20.0, 10.0, 10.0]

    def test_divergent_loop_trip_counts(self):
        env, __ = run_fragment_main(
            "float acc = 0.0;"
            "for (int i = 0; float(i) < v_x; i++) { acc += 1.0; }"
            "gl_FragColor = vec4(acc, 0.0, 0.0, 1.0);",
            n=4,
            presets=self.presets([0.0, 1.0, 3.0, 5.0]),
            decls="varying float v_x;",
        )
        assert list(env["gl_FragColor"].data[:, 0]) == [0.0, 1.0, 3.0, 5.0]

    def test_divergent_break(self):
        env, __ = run_fragment_main(
            "float acc = 0.0;"
            "for (int i = 0; i < 10; i++) {"
            "  if (float(i) >= v_x) { break; }"
            "  acc += 1.0;"
            "}"
            "gl_FragColor = vec4(acc, 0.0, 0.0, 1.0);",
            n=3,
            presets=self.presets([2.0, 5.0, 8.0]),
            decls="varying float v_x;",
        )
        assert list(env["gl_FragColor"].data[:, 0]) == [2.0, 5.0, 8.0]

    def test_divergent_discard(self):
        env, interp = run_fragment_main(
            "if (v_x < 1.5) { discard; }"
            "gl_FragColor = vec4(1.0);",
            n=4,
            presets=self.presets([0.0, 1.0, 2.0, 3.0]),
            decls="varying float v_x;",
        )
        assert list(interp.discarded) == [True, True, False, False]

    def test_divergent_ternary(self):
        env, __ = run_fragment_main(
            "float r = v_x > 1.0 ? 5.0 : -5.0;"
            "gl_FragColor = vec4(r, 0.0, 0.0, 1.0);",
            n=2,
            presets=self.presets([0.5, 1.5]),
            decls="varying float v_x;",
        )
        assert list(env["gl_FragColor"].data[:, 0]) == [-5.0, 5.0]

    def test_divergent_return_in_function(self):
        env, __ = run_fragment_main(
            "gl_FragColor = vec4(classify(v_x), 0.0, 0.0, 1.0);",
            n=3,
            presets=self.presets([0.0, 2.0, 4.0]),
            decls="""
            varying float v_x;
            float classify(float x) {
                if (x < 1.0) { return 100.0; }
                if (x < 3.0) { return 200.0; }
                return 300.0;
            }
            """,
        )
        assert list(env["gl_FragColor"].data[:, 0]) == [100.0, 200.0, 300.0]


class TestFunctions:
    def test_simple_call(self):
        env, __ = run_fragment_main(
            "gl_FragColor = vec4(sq(3.0), 0.0, 0.0, 1.0);",
            decls="float sq(float x) { return x * x; }",
        )
        assert env["gl_FragColor"].data[0, 0] == 9.0

    def test_out_parameter(self):
        env, __ = run_fragment_main(
            "float y; getvalue(y); gl_FragColor = vec4(y, 0.0, 0.0, 1.0);",
            decls="void getvalue(out float x) { x = 42.0; }",
        )
        assert env["gl_FragColor"].data[0, 0] == 42.0

    def test_inout_parameter(self):
        env, __ = run_fragment_main(
            "float y = 10.0; twice(y); gl_FragColor = vec4(y, 0.0, 0.0, 1.0);",
            decls="void twice(inout float x) { x *= 2.0; }",
        )
        assert env["gl_FragColor"].data[0, 0] == 20.0

    def test_in_parameter_is_a_copy(self):
        env, __ = run_fragment_main(
            "float y = 5.0; mangle(y); gl_FragColor = vec4(y, 0.0, 0.0, 1.0);",
            decls="void mangle(float x) { x = 0.0; }",
        )
        assert env["gl_FragColor"].data[0, 0] == 5.0

    def test_overload_dispatch(self):
        env, __ = run_fragment_main(
            "gl_FragColor = vec4(f(1.0), f(vec2(1.0, 2.0)), 0.0, 1.0);",
            decls=(
                "float f(float x) { return x + 100.0; }"
                "float f(vec2 x) { return x.x + x.y; }"
            ),
        )
        assert list(env["gl_FragColor"].data[0, :2]) == [101.0, 3.0]

    def test_global_variable_mutation(self):
        env, __ = run_fragment_main(
            "bump(); bump(); gl_FragColor = vec4(counter, 0.0, 0.0, 1.0);",
            decls="float counter = 0.0;\nvoid bump() { counter += 1.0; }",
        )
        assert env["gl_FragColor"].data[0, 0] == 2.0

    def test_early_return_skips_rest(self):
        env, __ = run_fragment_main(
            "gl_FragColor = vec4(f(), 0.0, 0.0, 1.0);",
            decls="float f() { return 1.0; return 2.0; }",
        )
        assert env["gl_FragColor"].data[0, 0] == 1.0


class TestStructsAtRuntime:
    def test_struct_roundtrip(self):
        env, __ = run_fragment_main(
            "Light l = Light(vec3(1.0, 2.0, 3.0), 0.5);"
            "gl_FragColor = vec4(l.direction * l.intensity, 1.0);",
            decls="struct Light { vec3 direction; float intensity; };",
        )
        assert list(env["gl_FragColor"].data[0, :3]) == [0.5, 1.0, 1.5]

    def test_struct_field_write(self):
        env, __ = run_fragment_main(
            "S s = S(1.0); s.x = 9.0; gl_FragColor = vec4(s.x, 0.0, 0.0, 1.0);",
            decls="struct S { float x; };",
        )
        assert env["gl_FragColor"].data[0, 0] == 9.0

    def test_struct_equality(self):
        env, __ = run_fragment_main(
            "S a = S(1.0); S b = S(1.0); "
            "gl_FragColor = vec4(a == b ? 1.0 : 0.0, 0.0, 0.0, 1.0);",
            decls="struct S { float x; };",
        )
        assert env["gl_FragColor"].data[0, 0] == 1.0


class TestConstructorsAtRuntime:
    def test_scalar_conversions(self):
        env, __ = run_fragment_main(
            "float f = float(3); int i = int(2.9); int j = int(-2.9);"
            "float b = float(true);"
            "gl_FragColor = vec4(f, float(i), float(j), b);"
        )
        assert list(env["gl_FragColor"].data[0]) == [3.0, 2.0, -2.0, 1.0]

    def test_vector_truncation_from_larger(self):
        env, __ = run_fragment_main(
            "vec4 v = vec4(1.0, 2.0, 3.0, 4.0);"
            "vec2 w = vec2(v.xyz);"  # extra components of last arg dropped
            "gl_FragColor = vec4(w, 0.0, 1.0);"
        )
        assert list(env["gl_FragColor"].data[0, :2]) == [1.0, 2.0]

    def test_matrix_diagonal(self):
        env, __ = run_fragment_main(
            "mat3 m = mat3(2.0);"
            "gl_FragColor = vec4(m[0][0], m[1][1], m[0][1], m[2][2]);"
        )
        assert list(env["gl_FragColor"].data[0]) == [2.0, 2.0, 0.0, 2.0]

    def test_bvec_and_ivec(self):
        env, __ = run_fragment_main(
            "ivec2 iv = ivec2(3, 4); bvec2 bv = bvec2(true, false);"
            "gl_FragColor = vec4(float(iv.x), float(iv.y), "
            "bv.x ? 1.0 : 0.0, bv.y ? 1.0 : 0.0);"
        )
        assert list(env["gl_FragColor"].data[0]) == [3.0, 4.0, 1.0, 0.0]
