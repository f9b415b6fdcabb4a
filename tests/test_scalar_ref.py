"""Tests for the scalar reference interpreter (repro.glsl.scalar_ref).

The scalar interpreter is the *oracle* of the differential harness, so
it gets its own unit tests: plain behaviours checked against
hand-computed values, plus bit-exact agreement with the vectorised
IR executor on shaders exercising divergent control flow.
"""

import numpy as np
import pytest

from repro.glsl import ScalarInterpreter, compile_shader
from repro.glsl.ir import IRExecutor
from repro.glsl.values import Value
from repro.glsl.types import VEC2


def run_scalar(source: str, presets=None):
    checked = compile_shader(source, "fragment")
    interp = ScalarInterpreter(checked)
    env = interp.run(presets or {})
    return env, interp


FS_HEADER = "precision highp float;\nvarying vec2 v_uv;\n"


class TestBasics:
    def test_arithmetic_and_swizzle(self):
        env, __ = run_scalar(
            FS_HEADER
            + "void main() {"
            "  vec3 v = vec3(1.0, 2.0, 3.0);"
            "  gl_FragColor = vec4(v.zyx, v.x + v.y * 2.0);"
            "}",
            {"v_uv": [0.0, 0.0]},
        )
        assert env["gl_FragColor"] == [3.0, 2.0, 1.0, 5.0]

    def test_varying_preset_is_read(self):
        env, __ = run_scalar(
            FS_HEADER
            + "void main() { gl_FragColor = vec4(v_uv, 0.0, 1.0); }",
            {"v_uv": [0.25, 0.75]},
        )
        assert env["gl_FragColor"][:2] == [0.25, 0.75]

    def test_int_division_truncates_toward_zero(self):
        env, __ = run_scalar(
            FS_HEADER
            + "void main() {"
            "  int c = (-7) / 2;"
            "  gl_FragColor = vec4(float(c), 0.0, 0.0, 1.0);"
            "}",
            {"v_uv": [0.0, 0.0]},
        )
        assert env["gl_FragColor"][0] == -3.0

    def test_matrix_vector_product(self):
        env, __ = run_scalar(
            FS_HEADER
            + "void main() {"
            "  mat2 m = mat2(1.0, 2.0, 3.0, 4.0);"
            "  vec2 v = m * vec2(1.0, 1.0);"
            "  gl_FragColor = vec4(v, 0.0, 1.0);"
            "}",
            {"v_uv": [0.0, 0.0]},
        )
        assert env["gl_FragColor"][:2] == [4.0, 6.0]

    def test_discard_sets_flag(self):
        __, interp = run_scalar(
            FS_HEADER
            + "void main() {"
            "  if (v_uv.x > 0.5) { discard; }"
            "  gl_FragColor = vec4(1.0);"
            "}",
            {"v_uv": [0.75, 0.0]},
        )
        assert interp.discarded

    def test_loop_with_break_and_continue(self):
        env, __ = run_scalar(
            FS_HEADER
            + "void main() {"
            "  float acc = 0.0;"
            "  for (int i = 0; i < 8; i++) {"
            "    if (i == 2) { continue; }"
            "    if (i == 5) { break; }"
            "    acc += float(i);"
            "  }"  # 0 + 1 + 3 + 4
            "  gl_FragColor = vec4(acc, 0.0, 0.0, 1.0);"
            "}",
            {"v_uv": [0.0, 0.0]},
        )
        assert env["gl_FragColor"][0] == 8.0

    def test_out_param_copy_back(self):
        env, __ = run_scalar(
            FS_HEADER
            + "float helper(float x, out float doubled) {"
            "  doubled = x * 2.0;"
            "  return x + 1.0;"
            "}"
            "void main() {"
            "  float d = 0.0;"
            "  float r = helper(3.0, d);"
            "  gl_FragColor = vec4(r, d, 0.0, 1.0);"
            "}",
            {"v_uv": [0.0, 0.0]},
        )
        assert env["gl_FragColor"][:2] == [4.0, 6.0]

    def test_missing_return_yields_zero(self):
        # Falling off the end of a non-void function is permitted by
        # the front end; both interpreters define it as the zero value.
        env, __ = run_scalar(
            FS_HEADER
            + "float nothing(float x) { float y = x; }"
            "void main() {"
            "  gl_FragColor = vec4(nothing(9.0) + 2.0, 0.0, 0.0, 1.0);"
            "}",
            {"v_uv": [0.0, 0.0]},
        )
        assert env["gl_FragColor"][0] == 2.0

    def test_dynamic_array_index_is_clamped(self):
        env, __ = run_scalar(
            FS_HEADER
            + "void main() {"
            "  float a[3];"
            "  for (int i = 0; i < 3; i++) { a[i] = float(i) + 1.0; }"
            "  int j = 7;"
            "  gl_FragColor = vec4(a[j], 0.0, 0.0, 1.0);"
            "}",
            {"v_uv": [0.0, 0.0]},
        )
        assert env["gl_FragColor"][0] == 3.0

    def test_rejects_non_float64_model(self):
        from repro.gles2.precision import make_model
        from repro.glsl.errors import GlslRuntimeError

        checked = compile_shader(
            FS_HEADER + "void main() { gl_FragColor = vec4(1.0); }",
            "fragment",
        )
        with pytest.raises(GlslRuntimeError):
            ScalarInterpreter(checked, float_model=make_model("ieee32"))


class TestAgreementWithVectorised:
    """Bit-exact agreement on shaders with per-lane divergent flow."""

    SHADER = FS_HEADER + """
    float weight(float x, out float aux) {
        aux = fract(x * 3.7);
        float acc = 0.0;
        for (int i = 0; i < 4; i++) {
            if (float(i) > x * 4.0) { break; }
            acc += sin(x + float(i));
        }
        return acc;
    }
    void main() {
        float aux = 0.0;
        float w = weight(v_uv.x, aux);
        float harvested = aux;
        vec3 base = v_uv.y > 0.5 ? vec3(w, harvested, 0.25)
                                 : vec3(harvested, 0.5, w);
        mat3 m = mat3(vec3(1.0, 0.2, 0.0),
                      vec3(0.0, 1.0, 0.3),
                      vec3(0.4, 0.0, 1.0));
        gl_FragColor = vec4(m * base, length(base));
    }
    """

    def test_lanes_match(self):
        checked = compile_shader(self.SHADER, "fragment")
        n = 8
        uv = np.stack(
            [np.linspace(0.0, 1.0, n), np.linspace(1.0, 0.0, n)], axis=1
        )
        vec = IRExecutor(checked)
        env = vec.execute(n, {"v_uv": Value(VEC2, uv.astype(np.float64))})
        expected = env["gl_FragColor"].data

        for lane in range(n):
            scalar = ScalarInterpreter(checked)
            scalar_env = scalar.run({"v_uv": list(uv[lane])})
            got = scalar_env["gl_FragColor"]
            assert got == list(expected[lane]), f"lane {lane} diverged"
