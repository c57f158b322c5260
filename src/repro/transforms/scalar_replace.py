"""Scalar replacement (the paper's framework step 3, after [CCK90]).

References that are invariant with respect to an innermost loop can be
kept in a register for the whole loop: the array element is loaded into
a compiler temporary before the loop, every use inside reads the
temporary, and (if written) the temporary is stored back afterwards.
This removes the redundant per-iteration memory traffic the cost model
prices at "1 cache line" — making it zero lines inside the loop.

The legality test here is deliberately conservative: a reference is
replaced only when every reference to its array inside the loop has
*identical* subscripts, so no aliasing analysis is needed.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.ir.expr import Bin, Call, Expr, Ref
from repro.ir.nodes import ArrayDecl, Assign, Loop, Program
from repro.ir.visit import fresh_name, iter_loops

__all__ = ["ScalarReplaceResult", "scalar_replace_program"]


@dataclass(frozen=True)
class ScalarReplaceResult:
    program: Program
    replaced: int  # number of array references promoted to scalars


def scalar_replace_program(program: Program) -> ScalarReplaceResult:
    """Promote innermost-loop-invariant references to scalars."""
    used_arrays = {decl.name for decl in program.arrays}
    used_loops = {loop.var for loop in iter_loops(program)}
    used = used_arrays | used_loops
    new_decls: list[ArrayDecl] = []
    replaced = 0

    def rewrite(node: "Loop | Assign") -> "list[Loop | Assign]":
        nonlocal replaced
        if isinstance(node, Assign):
            return [node]
        inner = [item for item in node.body if isinstance(item, Loop)]
        if inner:
            new_body: list[Loop | Assign] = []
            for item in node.body:
                new_body.extend(rewrite(item))
            return [node.with_body(new_body)]

        # Innermost loop: find promotable references.
        stmts = [item for item in node.body if isinstance(item, Assign)]
        candidates = _promotable_refs(stmts, node.var)
        if not candidates:
            return [node]
        pre: list[Assign] = []
        post: list[Assign] = []
        mapping: dict[Ref, Ref] = {}
        for ref, written in candidates:
            temp = fresh_name(f"T_{ref.array}", used)
            used.add(temp)
            new_decls.append(ArrayDecl(temp, ()))
            scalar = Ref(temp, ())
            mapping[ref] = scalar
            pre.append(Assign(scalar, ref))
            if written:
                post.append(Assign(ref, scalar))
            replaced += 1
        new_stmts = [
            Assign(
                mapping.get(stmt.lhs, stmt.lhs),
                _substitute_refs(stmt.rhs, mapping),
                stmt.sid,
            )
            for stmt in stmts
        ]
        return pre + [node.with_body(new_stmts)] + post

    new_body: list[Loop | Assign] = []
    for item in program.body:
        new_body.extend(rewrite(item))

    result = Program(
        program.name,
        program.params,
        program.arrays + tuple(new_decls),
        tuple(new_body),
    )
    # Fresh sids for the inserted load/store statements.
    result = result.renumbered()
    return ScalarReplaceResult(result, replaced)


def _promotable_refs(stmts: list[Assign], loop_var: str) -> list[tuple[Ref, bool]]:
    """Distinct invariant refs safe to promote.

    A reference is promotable when it is invariant with respect to the
    loop and provably disjoint from every *other* reference to the same
    array in the body: two references are provably disjoint when some
    dimension's subscript difference is a non-zero constant. Identical
    occurrences share one scalar.
    """
    by_array: dict[str, list[Ref]] = {}
    written: set[Ref] = set()
    for stmt in stmts:
        for ref in stmt.refs:
            bucket = by_array.setdefault(ref.array, [])
            if ref not in bucket:
                bucket.append(ref)
        written.add(stmt.lhs)

    out = []
    for array, refs in sorted(by_array.items()):
        for ref in refs:
            if ref.rank == 0:
                continue  # already a scalar
            if any(sub.coeff(loop_var) != 0 for sub in ref.subs):
                continue  # varies with the loop
            if all(_provably_disjoint(ref, other) for other in refs if other != ref):
                out.append((ref, ref in written))
    return out


def _provably_disjoint(r1: Ref, r2: Ref) -> bool:
    """Some dimension differs by a non-zero constant: never the same cell."""
    for a, b in zip(r1.subs, r2.subs):
        diff = a - b
        if diff.is_constant() and diff.const != 0:
            return True
    return False


def _substitute_refs(expr: Expr, mapping: dict[Ref, Ref]) -> Expr:
    if isinstance(expr, Ref):
        return mapping.get(expr, expr)
    if isinstance(expr, Bin):
        return Bin(
            expr.op,
            _substitute_refs(expr.left, mapping),
            _substitute_refs(expr.right, mapping),
        )
    if isinstance(expr, Call):
        return Call(expr.fn, tuple(_substitute_refs(a, mapping) for a in expr.args))
    return expr
