"""Greedy minimizer for failing fuzz programs.

Given a failing program and a predicate ("this still fails the same
way"), repeatedly tries structural simplifications — dropping nests and
statements, unrolling a loop level away, shrinking trip counts,
truncating right-hand sides, simplifying subscripts — keeping any edit
that preserves the failure, until no edit does.  Every candidate is
validated to stay a well-formed in-bounds program (no negative or
wrapped subscripts), so the printed repro is a real Fortran program, not
a Python accident.
"""

from __future__ import annotations

from typing import Callable, Iterator

from repro.ir.affine import Affine
from repro.ir.expr import Bin, Expr, Ref
from repro.ir.nodes import ArrayDecl, Assign, Loop, Program
from repro.ir.visit import replace_at, substitute_expr
from repro.verify.depforce import enumerate_accesses

__all__ = ["shrink_program", "program_in_bounds"]

#: Global cap on predicate evaluations per shrink (each runs the trials).
_MAX_EVALS = 400


def program_in_bounds(program: Program) -> bool:
    """Every dynamic access lands inside its declared extents."""
    extents = {
        decl.name: decl.extents(program.param_env) for decl in program.arrays
    }
    try:
        accesses = enumerate_accesses(program, program.param_env)
    except Exception:
        return False
    for array, location, _access in accesses:
        shape = extents.get(array)
        if shape is None or len(shape) != len(location):
            return False
        if any(not 1 <= x <= e for x, e in zip(location, shape)):
            return False
    return True


def shrink_program(
    program: Program,
    predicate: Callable[[Program], bool],
    max_evals: int = _MAX_EVALS,
) -> Program:
    """Greedily minimize ``program`` while ``predicate`` stays true."""
    current = program
    evals = 0
    progressed = True
    while progressed and evals < max_evals:
        progressed = False
        for candidate in _candidates(current):
            candidate = candidate.renumbered()
            if not candidate.statements:
                continue
            if not program_in_bounds(candidate):
                continue
            evals += 1
            if predicate(candidate):
                current = candidate
                progressed = True
                break
            if evals >= max_evals:
                break
    return _tighten_decls(current, predicate)


# ----------------------------------------------------------------------
# Candidate edits
# ----------------------------------------------------------------------
def _candidates(program: Program) -> Iterator[Program]:
    """Candidate simplifications, most aggressive first."""
    body = program.body

    def edited(path: tuple[int, ...], nodes) -> Program:
        return program.with_body(replace_at(body, path, nodes))

    # 1. Drop a whole top-level item.
    if len(body) > 1:
        for i in range(len(body)):
            yield edited((i,), [])
    # 2. Remove one loop level (substitute its variable with the lower bound).
    for path, node in _paths(program):
        if isinstance(node, Loop):
            hoisted = [_bind_var(child, node.var, node.lb) for child in node.body]
            yield edited(path, hoisted)
    # 3. Drop one statement.
    for path, node in _paths(program):
        if isinstance(node, Assign):
            yield edited(path, [])
    # 4. Shrink a loop's span.
    for path, node in _paths(program):
        if not isinstance(node, Loop):
            continue
        trip = node.constant_trip()
        if trip is None:
            continue
        for new_trip in (1, 2, trip // 2):
            if not 1 <= new_trip < trip:
                continue
            new_ub = node.lb + node.step * (new_trip - 1)
            yield edited(path, [Loop(node.var, node.lb, new_ub, node.step, node.body)])
    # 5. Truncate a statement's right-hand side.
    for path, node in _paths(program):
        if isinstance(node, Assign) and isinstance(node.rhs, Bin):
            for side in (node.rhs.left, node.rhs.right):
                yield edited(path, [Assign(node.lhs, side, node.sid)])
    # 6. Simplify a subscript: drop a term or zero the offset.
    for path, node in _paths(program):
        if not isinstance(node, Assign):
            continue
        for simplified in _simplify_refs(node):
            yield edited(path, [simplified])


def _paths(program: Program) -> Iterator[tuple[tuple[int, ...], "Loop | Assign"]]:
    def walk(nodes, prefix):
        for i, node in enumerate(nodes):
            path = prefix + (i,)
            yield path, node
            if isinstance(node, Loop):
                yield from walk(node.body, path)

    yield from walk(program.body, ())


def _bind_var(node, var: str, value: Affine):
    """Substitute ``var := value`` throughout a subtree (loop removal)."""
    if isinstance(node, Assign):
        return Assign(
            node.lhs.substitute(var, value),
            substitute_expr(node.rhs, var, value),
            node.sid,
        )
    lb = node.lb.substitute(var, value)
    ub = node.ub.substitute(var, value)
    body = tuple(_bind_var(child, var, value) for child in node.body)
    return Loop(node.var, lb, ub, node.step, body)


def _simplify_refs(stmt: Assign) -> Iterator[Assign]:
    refs = list(dict.fromkeys(walk_all_refs(stmt)))
    for target in refs:
        for dim, sub in enumerate(target.subs):
            if sub.terms:
                for name, _coeff in sub.terms:
                    smaller = Affine.build(
                        {n: c for n, c in sub.terms if n != name}, sub.const
                    )
                    yield _rewrite_ref(stmt, target, dim, smaller)
            if sub.const not in (0, 1):
                yield _rewrite_ref(
                    stmt, target, dim, Affine.build(dict(sub.terms), 1)
                )


def walk_all_refs(stmt: Assign) -> list[Ref]:
    return list(stmt.refs)


def _rewrite_ref(stmt: Assign, target: Ref, dim: int, new_sub: Affine) -> Assign:
    new_subs = tuple(
        new_sub if i == dim else s for i, s in enumerate(target.subs)
    )
    new_ref = Ref(target.array, new_subs)

    def rewrite_expr(expr: Expr) -> Expr:
        if expr is target:
            return new_ref
        if isinstance(expr, Bin):
            return Bin(expr.op, rewrite_expr(expr.left), rewrite_expr(expr.right))
        return expr

    lhs = new_ref if stmt.lhs is target else stmt.lhs
    return Assign(lhs, rewrite_expr(stmt.rhs), stmt.sid)


def _tighten_decls(
    program: Program, predicate: Callable[[Program], bool]
) -> Program:
    """Drop unused arrays and clamp extents to the touched region."""
    touched: dict[str, list[int]] = {}
    for array, location, _access in enumerate_accesses(program, program.param_env):
        hi = touched.setdefault(array, [1] * len(location))
        for dim, x in enumerate(location):
            hi[dim] = max(hi[dim], x)
    decls = [
        ArrayDecl.make(name, hi) if name in touched else None
        for name, hi in (
            (decl.name, touched.get(decl.name)) for decl in program.arrays
        )
        if hi is not None
    ]
    tightened = Program(
        program.name, program.params, tuple(decls), program.body
    )
    if program_in_bounds(tightened) and predicate(tightened):
        return tightened
    return program
