"""Tests for the constant-folding / branch-pruning pass."""

import pytest

from repro.glsl import ast_nodes as ast
from repro.glsl.optimize import optimize
from repro.glsl.parser import parse


def fold_main_body(body, decls=""):
    unit = optimize(parse(decls + "\nvoid main() { " + body + " }"))
    func = [d for d in unit.declarations if isinstance(d, ast.FunctionDef)][0]
    return func.body.statements


def first_initializer(body, decls=""):
    stmts = fold_main_body(body, decls)
    return stmts[0].declarators[0].initializer


class TestConstantFolding:
    def test_float_arithmetic(self):
        init = first_initializer("float x = 2.0 * 3.0 + 1.0;")
        assert isinstance(init, ast.FloatLiteral)
        assert init.value == 7.0

    def test_int_arithmetic(self):
        init = first_initializer("int x = (10 - 4) / 2;")
        assert isinstance(init, ast.IntLiteral)
        assert init.value == 3

    def test_int_division_truncates_toward_zero(self):
        init = first_initializer("int x = (0 - 7) / 2;")
        assert init.value == -3

    def test_division_by_zero_not_folded(self):
        init = first_initializer("int x = 1 / 0;")
        assert isinstance(init, ast.BinaryOp)

    def test_unary_minus(self):
        init = first_initializer("float x = -(2.5);")
        assert isinstance(init, ast.FloatLiteral)
        assert init.value == -2.5

    def test_not_folding(self):
        init = first_initializer("bool b = !false;")
        assert isinstance(init, ast.BoolLiteral)
        assert init.value is True

    def test_comparisons(self):
        init = first_initializer("bool b = 3 < 5;")
        assert init.value is True

    def test_logic(self):
        init = first_initializer("bool b = true && (false || true);")
        assert init.value is True

    def test_xor(self):
        init = first_initializer("bool b = true ^^ true;")
        assert init.value is False

    def test_mixed_types_left_for_checker(self):
        # 1 + 1.0 is a type error; folding must not mask it.
        init = first_initializer("float x = 1 + 1.0;")
        assert isinstance(init, ast.BinaryOp)

    def test_non_literals_untouched(self):
        stmts = fold_main_body("float x = 1.0; float y = x * 2.0;")
        assert isinstance(stmts[1].declarators[0].initializer, ast.BinaryOp)

    def test_nested_folding(self):
        init = first_initializer("float x = (1.0 + 2.0) * (3.0 - 1.0);")
        assert init.value == 6.0

    def test_int32_overflow_not_folded(self):
        init = first_initializer("int x = 2000000000 + 2000000000;")
        assert isinstance(init, ast.BinaryOp)

    def test_folding_inside_calls(self):
        stmts = fold_main_body(
            "gl_FragColor = vec4(1.0 + 1.0, 0.0, 0.0, 1.0);"
        )
        call = stmts[0].expr.value
        assert isinstance(call.args[0], ast.FloatLiteral)
        assert call.args[0].value == 2.0


class TestBranchPruning:
    def test_if_true_keeps_then(self):
        stmts = fold_main_body("if (true) { float x = 1.0; } else { float y = 2.0; }")
        block = stmts[0]
        assert isinstance(block, ast.CompoundStmt)
        assert isinstance(block.statements[0], ast.DeclStmt)
        assert block.statements[0].declarators[0].name == "x"

    def test_if_false_keeps_else(self):
        stmts = fold_main_body("if (false) { float x = 1.0; } else { float y = 2.0; }")
        block = stmts[0]
        assert block.statements[0].declarators[0].name == "y"

    def test_if_false_no_else_becomes_empty(self):
        stmts = fold_main_body("if (false) { float x = 1.0; }")
        assert isinstance(stmts[0], ast.CompoundStmt)
        assert stmts[0].statements == []

    def test_constant_condition_via_folding(self):
        stmts = fold_main_body("if (1 < 2) { float x = 1.0; }")
        assert isinstance(stmts[0], ast.CompoundStmt)
        assert stmts[0].statements  # then branch kept

    def test_constant_ternary(self):
        init = first_initializer("float x = true ? 1.0 : 2.0;")
        assert isinstance(init, ast.FloatLiteral)
        assert init.value == 1.0

    def test_while_false_removed(self):
        stmts = fold_main_body("while (false) { float x = 1.0; }")
        assert isinstance(stmts[0], ast.CompoundStmt)
        assert stmts[0].statements == []

    def test_dead_branch_not_type_checked(self):
        """Code pruned away may even be ill-typed — like #ifdef'd-out
        code under a driver that folds before checking."""
        from repro.glsl.typecheck import ShaderStage, check

        unit = optimize(parse(
            "void main() { if (false) { undeclared_name = 1.0; } "
            "gl_FragColor = vec4(1.0); }"
        ))
        check(unit, ShaderStage.FRAGMENT)  # must not raise

    def test_dynamic_branches_kept(self):
        stmts = fold_main_body(
            "if (gl_FragCoord.x > 0.5) { discard; }"
        )
        assert isinstance(stmts[0], ast.IfStmt)


class TestEndToEnd:
    def test_folded_shader_runs_correctly(self):
        from repro.glsl.ir import IRExecutor
        from repro.glsl.typecheck import ShaderStage, check

        unit = optimize(parse(
            "precision highp float;\n"
            "void main() {\n"
            "  float x = 2.0 * 8.0 + 4.0;\n"
            "  if (3 > 1) { x = x / 2.0; }\n"
            "  gl_FragColor = vec4(x / 255.0, 0.0, 0.0, 1.0);\n"
            "}"
        ))
        checked = check(unit, ShaderStage.FRAGMENT)
        env = IRExecutor(checked).execute(1, {})
        assert env["gl_FragColor"].data[0, 0] == 10.0 / 255.0

    def test_folding_reduces_op_count(self):
        """The optimiser saves dynamic ops: lowered to IR without the
        IR passes, the folded shader executes fewer ALU operations.
        The IR fold pass then reaches the same fully folded program
        from either source."""
        from repro.glsl.ir import IRExecutor, lower_shader
        from repro.glsl.typecheck import ShaderStage, check
        from repro.perf.counters import OpCounters

        source = (
            "precision highp float;\n"
            "void main() {\n"
            "  gl_FragColor = vec4((1.0 + 2.0 + 3.0 + 4.0) / 255.0);\n"
            "}"
        )

        def ops_with(optimise, ir_passes):
            unit = parse(source)
            if optimise:
                unit = optimize(unit)
            checked = check(unit, ShaderStage.FRAGMENT)
            counters = OpCounters()
            executor = IRExecutor(checked, counters=counters)
            if not ir_passes:
                executor.program = lower_shader(checked)
            executor.execute(64, {})
            return counters.alu

        assert ops_with(True, False) < ops_with(False, False)
        assert ops_with(True, True) == ops_with(False, True) \
            < ops_with(True, False)
