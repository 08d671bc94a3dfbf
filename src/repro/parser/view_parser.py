"""Parsing view definitions: one named conjunctive query per line.

A views section uses exactly the query syntax, one view per line, with
blank lines and ``#`` comments ignored::

    DEPT_EMP(e, d, l) :- EMP(e, s, d), DEP(d, l)
    EMP_NAMES(e)      :- EMP(e, s, d)

The head name becomes the view name (and the derived relation's name);
head arguments become the view's output columns.  Since view heads must
consist of pairwise distinct variables, a head constant or repeated head
variable is reported as a :class:`~repro.exceptions.ParseError` carrying
the offending line.
"""

from __future__ import annotations

from typing import MutableMapping, Optional

from repro.exceptions import ParseError, ViewError
from repro.parser.query_parser import parse_query
from repro.relational.schema import DatabaseSchema
from repro.views.view import View, ViewCatalog


def parse_view(text: str, schema: DatabaseSchema) -> View:
    """Parse one ``V(args) :- body`` line into a :class:`View`."""
    definition = parse_query(text, schema)
    try:
        return View(definition.name, definition)
    except ViewError as error:
        raise ParseError(f"invalid view definition: {error}", text) from error


def parse_views(text: str, schema: DatabaseSchema,
                interned: Optional[MutableMapping[str, View]] = None) -> ViewCatalog:
    """Parse a views section (one view per line) into a :class:`ViewCatalog`.

    An error names the offending line (``line N: ...``).  ``interned``
    maps a stripped line to the :class:`View` already parsed from it
    over this same ``schema`` object: such a line is not parsed again,
    and each newly parsed line is added to it.  That is how a service
    pays only for the lines a new catalog version changed.  A line that
    fails to parse is never added.
    """
    if interned is None:
        interned = {}
    catalog = ViewCatalog(schema=schema)
    for line_number, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        try:
            view = interned.get(stripped)
            if view is None:
                view = interned[stripped] = parse_view(stripped, schema)
            catalog.add(view)
        except ViewError as error:
            raise ParseError(f"line {line_number}: {error}", text) from error
        except ParseError as error:
            raise ParseError(f"line {line_number}: {error}", text) from error
    return catalog
