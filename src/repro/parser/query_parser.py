"""Parsing conjunctive queries from a datalog-like syntax.

Example::

    Q(e) :- EMP(e, s, d), DEP(d, l)

Head arguments become distinguished variables (or constants if quoted /
numeric); body arguments that do not appear in the head become
nondistinguished variables.  Constants are written as numbers or quoted
strings, e.g. ``Q(x) :- EMP(x, 100, 'sales')``.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from repro.exceptions import ParseError
from repro.parser.tokenizer import Token, TokenStream
from repro.queries.conjunct import Conjunct
from repro.queries.conjunctive_query import ConjunctiveQuery
from repro.relational.schema import DatabaseSchema
from repro.terms.term import Constant, DistinguishedVariable, NonDistinguishedVariable, Term


def _constant_value(token: Token) -> Any:
    if token.kind == "NUMBER":
        text = token.text
        return float(text) if "." in text else int(text)
    return token.text[1:-1]  # strip quotes


def _parse_argument_list(stream: TokenStream) -> List[Token]:
    stream.expect("LPAREN")
    arguments = [_expect_argument(stream)]
    while stream.accept("COMMA"):
        arguments.append(_expect_argument(stream))
    stream.expect("RPAREN")
    return arguments


def _expect_argument(stream: TokenStream) -> Token:
    token = stream.peek()
    if token.kind in ("NAME", "NUMBER", "STRING"):
        return stream.next()
    raise ParseError(f"expected a variable or constant, found {token.text!r}",
                     stream.text, token.position)


def parse_query(text: str, schema: DatabaseSchema, name: str = "") -> ConjunctiveQuery:
    """Parse ``Head(args) :- Atom(args), Atom(args), ...`` into a query."""
    stream = TokenStream(text)
    head_name = stream.expect("NAME").text
    head_arguments = _parse_argument_list(stream)
    stream.expect("TURNSTILE")

    body: List[Tuple[str, List[Token]]] = []
    while True:
        relation = stream.expect("NAME").text
        arguments = _parse_argument_list(stream)
        body.append((relation, arguments))
        if not stream.accept("COMMA"):
            break
    stream.expect_end()

    head_variable_names = {token.text for token in head_arguments if token.kind == "NAME"}
    cache: Dict[str, Term] = {}

    def to_term(token: Token) -> Term:
        if token.kind in ("NUMBER", "STRING"):
            return Constant(_constant_value(token))
        if token.text not in cache:
            if token.text in head_variable_names:
                cache[token.text] = DistinguishedVariable(token.text)
            else:
                cache[token.text] = NonDistinguishedVariable(token.text)
        return cache[token.text]

    # Labelled c1, c2, ... as ConjunctiveQuery would label them, so it
    # keeps these atoms instead of rebuilding each one.
    conjuncts = [
        Conjunct(relation, [to_term(token) for token in arguments], f"c{position}")
        for position, (relation, arguments) in enumerate(body, 1)
    ]
    summary_row = tuple(to_term(token) for token in head_arguments)
    return ConjunctiveQuery(
        input_schema=schema,
        conjuncts=conjuncts,
        summary_row=summary_row,
        name=name or head_name,
    )
