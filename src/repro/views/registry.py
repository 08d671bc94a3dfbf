"""The view rewriter's candidate-generation strategies, by name.

A *rewriter* decides which catalog views are worth matching and which
image combinations become candidate rewritings; the chase,
certification, and ranking stages around it are shared.  Two strategies
exist:

* ``"exhaustive"`` — the seed behaviour, kept verbatim: every view is
  matched, candidates are all subsets of the matched images up to the
  combination-size budget.  The certified reference and the default.
* ``"bucketed"`` — MiniCon-style: a :class:`~repro.views.index.CatalogIndex`
  prunes views whose body relations (or constants) cannot occur in the
  chased query before any homomorphism search, and candidates grow only
  through per-subgoal buckets (see :mod:`repro.views.buckets`).

:class:`~repro.api.config.SolverConfig.rewrite_strategy`, the CLI's
``--strategy`` and the wire's ``strategy`` field all validate here.  The
classes live in :mod:`repro.views.rewriting`; this module imports
nothing from the views pipeline, so ``repro.api.config`` can validate
names without an import cycle.
"""

from __future__ import annotations

from typing import Optional

from repro.exceptions import ViewError

__all__ = [
    "DEFAULT_REWRITE_STRATEGY",
    "REWRITE_STRATEGIES",
    "resolve_rewriter_name",
    "validate_rewriter_name",
]

#: Every strategy name, in the order the CLI lists them.
REWRITE_STRATEGIES = ("exhaustive", "bucketed")

#: The strategy used when none is named.
DEFAULT_REWRITE_STRATEGY = "exhaustive"


def validate_rewriter_name(name: str) -> str:
    """Return ``name``, or raise :class:`ViewError` naming the strategies."""
    if name not in REWRITE_STRATEGIES:
        known = ", ".join(sorted(REWRITE_STRATEGIES))
        raise ViewError(
            f"unknown rewrite strategy {name!r}; registered strategies: {known}")
    return name


def resolve_rewriter_name(name: Optional[str] = None) -> str:
    """``name`` validated; no name (``None``) means the default."""
    return validate_rewriter_name(name or DEFAULT_REWRITE_STRATEGY)
