"""Lexer tests: tokens, literals, comments, reserved words."""

import pytest

from repro.glsl.errors import GlslSyntaxError
from repro.glsl.lexer import (
    Token,
    TokenType,
    int_literal_value,
    strip_comments,
    tokenize,
)


def kinds(source):
    return [(t.type, t.value) for t in tokenize(source) if t.type != TokenType.EOF]


class TestBasicTokens:
    def test_identifier(self):
        assert kinds("foo_bar2") == [(TokenType.IDENT, "foo_bar2")]

    def test_keyword(self):
        assert kinds("void") == [(TokenType.KEYWORD, "void")]

    def test_bool_constants(self):
        assert kinds("true false") == [
            (TokenType.BOOLCONST, "true"),
            (TokenType.BOOLCONST, "false"),
        ]

    def test_operators_longest_match(self):
        assert [v for __, v in kinds("a+=b")] == ["a", "+=", "b"]
        assert [v for __, v in kinds("a++ +b")] == ["a", "++", "+", "b"]
        assert [v for __, v in kinds("a<=b")] == ["a", "<=", "b"]

    def test_punctuation(self):
        values = [v for __, v in kinds("f(x, y[1]);")]
        assert values == ["f", "(", "x", ",", "y", "[", "1", "]", ")", ";"]


class TestNumericLiterals:
    def test_decimal_int(self):
        assert kinds("42") == [(TokenType.INTCONST, "42")]

    def test_hex_int(self):
        assert kinds("0xFF") == [(TokenType.INTCONST, "0xFF")]
        assert int_literal_value("0xFF") == 255

    def test_octal_int(self):
        assert kinds("017") == [(TokenType.INTCONST, "017")]
        assert int_literal_value("017") == 15

    def test_zero(self):
        assert int_literal_value("0") == 0

    def test_float_forms(self):
        for text in ("1.0", ".5", "1.", "1e3", "1.5e-3", "2.E+4"):
            tokens = kinds(text)
            assert tokens[0][0] == TokenType.FLOATCONST, text

    def test_float_vs_field_access(self):
        # "a.x" must lex as ident-dot-ident, not a float.
        values = [v for __, v in kinds("a.x")]
        assert values == ["a", ".", "x"]

    def test_int_then_dot_digit_is_float(self):
        assert kinds("3.5")[0][0] == TokenType.FLOATCONST


class TestComments:
    def test_line_comment(self):
        assert kinds("a // comment\nb") == [
            (TokenType.IDENT, "a"),
            (TokenType.IDENT, "b"),
        ]

    def test_block_comment(self):
        assert kinds("a /* b c */ d") == [
            (TokenType.IDENT, "a"),
            (TokenType.IDENT, "d"),
        ]

    def test_block_comment_preserves_lines(self):
        stripped = strip_comments("a/*x\ny*/b")
        assert stripped.count("\n") == 1

    def test_unterminated_block_comment(self):
        with pytest.raises(GlslSyntaxError):
            tokenize("a /* never closed")

    def test_comment_positions_tracked(self):
        tokens = tokenize("// one\nfoo")
        ident = [t for t in tokens if t.type == TokenType.IDENT][0]
        assert ident.line == 2


class TestReservedWords:
    @pytest.mark.parametrize("word", ["class", "goto", "double", "switch", "union"])
    def test_reserved_word_rejected(self, word):
        with pytest.raises(GlslSyntaxError):
            tokenize(f"int {word};")

    def test_double_underscore_rejected(self):
        with pytest.raises(GlslSyntaxError):
            tokenize("float my__var;")

    def test_unexpected_character(self):
        with pytest.raises(GlslSyntaxError):
            tokenize("float a = $;")


class TestPositions:
    def test_line_and_column(self):
        tokens = tokenize("a\n  b")
        a, b = tokens[0], tokens[1]
        assert (a.line, a.column) == (1, 1)
        assert (b.line, b.column) == (2, 3)

    def test_eof_token_present(self):
        assert tokenize("")[-1].type == TokenType.EOF

    def test_token_repr(self):
        assert "Token" in repr(Token(TokenType.IDENT, "x", 1, 1))


class TestEdgeCases:
    def test_positions_after_multiline_block_comment(self):
        # The comment becomes one space followed by its newlines, so a
        # token after it on the same line counts columns from there.
        tokens = tokenize("a /* one\ntwo\n three */ b\n  c")
        assert [(t.value, t.line, t.column) for t in tokens[:3]] == [
            ("a", 1, 1), ("b", 3, 2), ("c", 4, 3),
        ]

    def test_slash_star_slash_is_unclosed(self):
        with pytest.raises(GlslSyntaxError) as info:
            tokenize("a\nb /*/ c")
        assert "unterminated block comment" in str(info.value)
        assert info.value.line == 2

    def test_line_comment_inside_block_comment(self):
        assert kinds("a /* // */ b") == [
            (TokenType.IDENT, "a"), (TokenType.IDENT, "b"),
        ]

    def test_leading_zero_decimal_splits(self):
        assert kinds("09") == [
            (TokenType.INTCONST, "0"), (TokenType.INTCONST, "9"),
        ]

    def test_float_forms_whole_token(self):
        assert kinds("1.") == [(TokenType.FLOATCONST, "1.")]
        assert kinds(".5e-2") == [(TokenType.FLOATCONST, ".5e-2")]

    def test_longest_operator_wins(self):
        assert [v for __, v in kinds("a<<=b")] == ["a", "<<=", "b"]
        assert [v for __, v in kinds("a---b")] == ["a", "--", "-", "b"]

    @pytest.mark.parametrize("source, message, column", [
        ("int x;\n  float class;", "'class' is a reserved word", 9),
        ("int x;\n  my__var", "double underscore", 3),
        ("int x;\n  a = $;", "unexpected character '$'", 7),
    ])
    def test_error_positions(self, source, message, column):
        with pytest.raises(GlslSyntaxError) as info:
            tokenize(source)
        assert message in str(info.value)
        assert (info.value.line, info.value.column) == (2, column)

    def test_tokens_are_positional_records(self):
        token = tokenize("foo")[0]
        assert token == Token(TokenType.IDENT, "foo", 1, 1)
        assert tuple(token) == ("ident", "foo", 1, 1)
        assert repr(token) == "Token(ident, 'foo', 1:1)"
