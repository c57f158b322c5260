"""Canonicalization: one stable content key per semantic loop nest.

The compile server caches results content-addressed on the *meaning* of
a nest, not its spelling: two requests whose programs differ only by
loop-variable names, declaration order, or the program-name token must
share one cache entry (and therefore one compile). This module defines
that equivalence:

* loop index variables are alpha-renamed, in first-occurrence order of a
  pre-order walk of the body, to ``I0, I1, ...`` (collision-guarded
  against declared arrays and parameters);
* array declarations are sorted by name (the analytic predictor and the
  transforms are declaration-order independent; the canonical order
  *defines* the service's address-layout tie-break);
* the program name is normalized to ``NEST`` — parameters keep their
  names and values, because they change trip counts and footprints.

:func:`canonical_text` is the round-trippable pretty text of that
canonical form and :func:`content_digest` its SHA-256 key;
:func:`canonical_digest` is the same key for a program already in
canonical form, so a caller holding that form does not build it twice.
The oracle layer's ``canonical_key`` (exact pretty text) remains the
right key for *intra-process* memoization where renames are impossible;
this module is the stricter cross-request key.
"""

from __future__ import annotations

import hashlib

from repro.ir.nodes import Assign, Loop, Program
from repro.ir.pretty import pretty_program
from repro.ir.visit import rename_loops

__all__ = [
    "CANONICAL_NAME",
    "canonical_digest",
    "canonical_program",
    "canonical_text",
    "content_digest",
]

#: Every canonical program carries this name token.
CANONICAL_NAME = "NEST"


def _loop_vars_preorder(program: Program) -> list[str]:
    """Loop index variables in first-occurrence (pre-order) order."""
    seen: list[str] = []

    def walk(node: "Loop | Assign") -> None:
        if isinstance(node, Assign):
            return
        if node.var not in seen:
            seen.append(node.var)
        for child in node.body:
            walk(child)

    for node in program.body:
        walk(node)
    return seen


def _canonical_rename(program: Program) -> dict[str, str]:
    """Old loop var -> canonical name, avoiding arrays and parameters."""
    reserved = {decl.name for decl in program.arrays}
    reserved.update(name for name, _ in program.params)
    mapping: dict[str, str] = {}
    counter = 0
    for var in _loop_vars_preorder(program):
        while True:
            candidate = f"I{counter}"
            counter += 1
            if candidate not in reserved:
                break
        mapping[var] = candidate
    return mapping


def canonical_program(program: Program) -> tuple[Program, dict[str, str]]:
    """The canonical form of ``program`` plus the applied rename map.

    Returns ``(canonical, mapping)`` where ``mapping`` maps each original
    loop variable to its canonical name (``{"J": "I0", ...}``); clients
    that want their own spelling back invert it over the response.
    Statement sids are renumbered in canonical body order, so structural
    caches built over the canonical form are deterministic too.
    """
    mapping = _canonical_rename(program)
    body = tuple(rename_loops(node, mapping) for node in program.body)
    arrays = tuple(sorted(program.arrays, key=lambda decl: decl.name))
    canonical = Program(
        CANONICAL_NAME, program.params, arrays, body
    ).renumbered()
    return canonical, mapping


def canonical_text(program: Program) -> str:
    """Round-trippable pretty text of the canonical form."""
    canonical, _ = canonical_program(program)
    return pretty_program(canonical)


def canonical_digest(canonical: Program) -> str:
    """The content key of a program already in canonical form."""
    return hashlib.sha256(pretty_program(canonical).encode()).hexdigest()[:16]


def content_digest(program: Program) -> str:
    """Stable hex content key of the nest's canonical form (16 chars)."""
    return canonical_digest(canonical_program(program)[0])
