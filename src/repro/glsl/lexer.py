"""Tokeniser for GLSL ES 1.00 source.

Operates on *preprocessed* source (see :mod:`repro.glsl.preprocessor`)
but tolerates raw source too, since ``#`` directives are stripped
earlier.  Tracks line/column for every token so later stages can
produce driver-style info logs.
"""

from __future__ import annotations

import re
from typing import List, NamedTuple

from .errors import GlslSyntaxError


class TokenType:
    """Token categories."""

    IDENT = "ident"
    KEYWORD = "keyword"
    INTCONST = "intconst"
    FLOATCONST = "floatconst"
    BOOLCONST = "boolconst"
    OP = "op"
    EOF = "eof"


#: Keywords of GLSL ES 1.00 (spec §3.6).
KEYWORDS = frozenset(
    """
    attribute const uniform varying
    break continue do for while
    if else
    in out inout
    float int void bool true false
    lowp mediump highp precision invariant
    discard return
    mat2 mat3 mat4
    vec2 vec3 vec4 ivec2 ivec3 ivec4 bvec2 bvec3 bvec4
    sampler2D samplerCube
    struct
    """.split()
)

#: Words reserved for future use — using one is a compile-time error
#: (spec §3.6).  A representative subset.
RESERVED = frozenset(
    """
    asm class union enum typedef template this packed goto switch default
    inline noinline volatile public static extern external interface flat
    long short double half fixed unsigned superp input output
    hvec2 hvec3 hvec4 dvec2 dvec3 dvec4 fvec2 fvec3 fvec4
    sampler1D sampler3D sampler1DShadow sampler2DShadow sampler2DRect
    sampler3DRect sampler2DRectShadow
    sizeof cast namespace using
    """.split()
)

#: Multi-character operators, longest first so the scanner is greedy.
OPERATORS = [
    "<<=", ">>=",
    "++", "--", "<=", ">=", "==", "!=", "&&", "||", "^^",
    "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<", ">>",
    "(", ")", "[", "]", "{", "}",
    ".", ",", ";", ":", "?",
    "+", "-", "*", "/", "%",
    "<", ">", "=", "!", "&", "|", "^", "~",
]

#: Comments: a line comment up to its newline, a block comment, or an
#: unclosed ``/*`` (the last alternative, an error).
_COMMENT_RE = re.compile(r"//[^\n]*|/\*.*?\*/|/\*", re.DOTALL)

#: One token (or whitespace run) per match, alternatives in priority
#: order: whitespace, identifier/keyword, float, int (hex | octal |
#: decimal), operators longest first, then any other character (an
#: error).  ``09`` therefore lexes as the octal ``0`` then ``9``.  A
#: token's group is named after its :class:`TokenType`.
_TOKEN_RE = re.compile(
    r"""
    (?P<space>[ \t\r\f\v\n]+)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<floatconst>
        \d+\.\d*(?:[eE][+-]?\d+)?    # 1. , 1.5 , 1.5e3
      | \.\d+(?:[eE][+-]?\d+)?      # .5 , .5e-2
      | \d+[eE][+-]?\d+             # 1e3
    )
  | (?P<intconst>0[xX][0-9a-fA-F]+|0[0-7]*|\d+)
  | (?P<op>"""
    + "|".join(re.escape(op) for op in OPERATORS)
    + r""")
  | (?P<other>.)
    """,
    re.VERBOSE,
)

#: Token type of every keyword (``true``/``false`` are constants).
_WORD_TYPES = dict.fromkeys(KEYWORDS, TokenType.KEYWORD)
_WORD_TYPES.update(dict.fromkeys(("true", "false"), TokenType.BOOLCONST))


class Token(NamedTuple):
    """One lexical token with its source position."""

    type: str
    value: str
    line: int
    column: int

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Token({self.type}, {self.value!r}, {self.line}:{self.column})"


def _comment_space(match) -> str:
    text = match.group()
    if text == "/*":
        source = match.string
        raise GlslSyntaxError(
            "unterminated block comment",
            line=source.count("\n", 0, match.start()) + 1,
        )
    return " " + "\n" * text.count("\n")


def strip_comments(source: str) -> str:
    """Replace comments with whitespace, preserving line structure.

    Block comments keep their newlines so positions stay accurate;
    everything else inside a comment becomes a single space (spec:
    comments are replaced by one space).
    """
    return _COMMENT_RE.sub(_comment_space, source)


def tokenize(source: str) -> List[Token]:
    """Tokenise GLSL source into a token list ending with an EOF token."""
    tokens: List[Token] = []
    append = tokens.append
    # ``Token(...)`` without the generated ``__new__``'s extra call.
    new = tuple.__new__
    line = 1
    line_start = 0
    for m in _TOKEN_RE.finditer(strip_comments(source)):
        kind = m.lastgroup
        if kind == "space":
            text = m.group()
            breaks = text.count("\n")
            if breaks:
                line += breaks
                line_start = m.start() + text.rindex("\n") + 1
            continue
        start = m.start()
        value = m.group()
        if kind == TokenType.IDENT:
            kind = _WORD_TYPES.get(value, kind)
            if kind == TokenType.IDENT and (value in RESERVED or "__" in value):
                message = (
                    f"'{value}' is a reserved word" if value in RESERVED
                    else f"identifier '{value}' contains a double "
                    "underscore (reserved)"
                )
                raise GlslSyntaxError(
                    message, line=line, column=start - line_start + 1
                )
        elif kind == "other":
            raise GlslSyntaxError(
                f"unexpected character {value!r}",
                line=line, column=start - line_start + 1,
            )
        append(new(Token, (kind, value, line, start - line_start + 1)))
    append(Token(TokenType.EOF, "", line, 1))
    return tokens


def int_literal_value(text: str) -> int:
    """Decode a GLSL integer literal (decimal, octal or hex)."""
    if text.lower().startswith("0x"):
        return int(text, 16)
    if text.startswith("0") and len(text) > 1:
        return int(text, 8)
    return int(text, 10)
