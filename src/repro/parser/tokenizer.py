"""A small tokenizer shared by the schema, query, and dependency parsers."""

from __future__ import annotations

import re
from typing import List, NamedTuple

from repro.exceptions import ParseError

_TOKEN_SPEC = [
    ("NUMBER", r"-?\d+(?:\.\d+)?"),
    ("STRING", r"'[^']*'|\"[^\"]*\""),
    ("ARROW", r"->"),
    ("TURNSTILE", r":-"),
    ("SUBSET", r"<=|⊆"),
    ("NAME", r"[A-Za-z_][A-Za-z_0-9]*"),
    ("LPAREN", r"\("),
    ("RPAREN", r"\)"),
    ("LBRACKET", r"\["),
    ("RBRACKET", r"\]"),
    ("COMMA", r","),
    ("COLON", r":"),
    ("EQUALS", r"="),
]

# One match per token: leading whitespace is skipped inside it, and any
# other character no token starts with matches UNEXPECTED.
_TOKEN_RE = re.compile(
    r"\s*(?:"
    + "|".join(f"(?P<{name}>{pattern})" for name, pattern in _TOKEN_SPEC)
    + r"|(?P<UNEXPECTED>\S))")


class Token(NamedTuple):
    """One lexical token with its position in the source text."""

    kind: str
    text: str
    position: int

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Token({self.kind}, {self.text!r}@{self.position})"


def tokenize(text: str) -> List[Token]:
    """Tokenize ``text``; raises ParseError on unrecognised characters."""
    tokens: List[Token] = []
    for match in _TOKEN_RE.finditer(text):
        group = match.lastindex
        token = Token(match.lastgroup, match.group(group), match.start(group))
        if token.kind == "UNEXPECTED":
            raise ParseError(f"unexpected character {token.text!r}", text,
                             token.position)
        tokens.append(token)
    return tokens


class TokenStream:
    """Cursor over a token list with the usual expect/accept helpers."""

    def __init__(self, text: str):
        self.text = text
        self.tokens = tokenize(text)
        self.index = 0

    def peek(self) -> Token:
        if self.index >= len(self.tokens):
            raise ParseError("unexpected end of input", self.text, len(self.text))
        return self.tokens[self.index]

    def at_end(self) -> bool:
        return self.index >= len(self.tokens)

    def next(self) -> Token:
        token = self.peek()
        self.index += 1
        return token

    # ``accept`` and ``expect`` run once per token of every parsed text,
    # so they index the list directly instead of calling ``peek``.

    def accept(self, kind: str) -> Token:
        """Consume a token of the given kind or None."""
        index = self.index
        if index < len(self.tokens) and self.tokens[index].kind == kind:
            self.index = index + 1
            return self.tokens[index]
        return None  # type: ignore[return-value]

    def expect(self, kind: str) -> Token:
        index = self.index
        if index >= len(self.tokens):
            raise ParseError(f"expected {kind} but input ended", self.text, len(self.text))
        token = self.tokens[index]
        if token.kind != kind:
            raise ParseError(
                f"expected {kind} but found {token.text!r}", self.text, token.position
            )
        self.index = index + 1
        return token

    def expect_end(self) -> None:
        if not self.at_end():
            token = self.peek()
            raise ParseError(
                f"unexpected trailing input {token.text!r}", self.text, token.position
            )
