"""Tests for the ProgramBuilder DSL, IR nodes, and pretty printer."""

import pytest
from hypothesis import example, given, strategies as st

from repro.errors import IRError, NonAffineError
from repro.ir import (
    Affine,
    Assign,
    Loop,
    Program,
    ProgramBuilder,
    Ref,
    enclosing_loops,
    iter_loops,
    iter_statements,
    pretty_program,
    validate_program,
)


def build_matmul(n=512):
    b = ProgramBuilder("matmul")
    N = b.param("N", n)
    I, J, K = b.indices("I", "J", "K")
    A = b.array("A", (N, N))
    B = b.array("B", (N, N))
    C = b.array("C", (N, N))
    with b.loop(J, 1, N):
        with b.loop(K, 1, N):
            with b.loop(I, 1, N):
                b.assign(C[I, J], C[I, J] + A[I, K] * B[K, J])
    return b.build()


class TestBuilder:
    def test_matmul_shape(self):
        prog = build_matmul()
        assert prog.name == "matmul"
        assert prog.param_env == {"N": 512}
        loops = list(iter_loops(prog))
        assert [l.var for l in loops] == ["J", "K", "I"]
        stmts = list(iter_statements(prog))
        assert len(stmts) == 1
        assert stmts[0].sid == 0
        assert stmts[0].lhs == Ref.make("C", "I", "J")

    def test_refs_order_writes_first(self):
        stmt = build_matmul().statements[0]
        arrays = [r.array for r in stmt.refs]
        assert arrays == ["C", "C", "A", "B"]

    def test_duplicate_param_rejected(self):
        b = ProgramBuilder("p")
        b.param("N", 4)
        with pytest.raises(IRError):
            b.param("N", 8)

    def test_duplicate_array_rejected(self):
        b = ProgramBuilder("p")
        b.array("A", (4,))
        with pytest.raises(IRError):
            b.array("A", (4,))

    def test_builder_single_use(self):
        b = ProgramBuilder("p")
        b.build()
        with pytest.raises(IRError):
            b.build()

    def test_index_arithmetic_in_subscripts(self):
        b = ProgramBuilder("p")
        N = b.param("N", 8)
        (I,) = b.indices("I")
        A = b.array("A", (N,))
        B = b.array("B", (N,))
        with b.loop(I, 2, N - 1):
            b.assign(A[I], B[I - 1] + B[I + 1] + B[2 * I - 2])
        prog = b.build()
        reads = prog.statements[0].reads
        assert [str(r.subs[0]) for r in reads] == ["I-1", "I+1", "2*I-2"]

    def test_nonlinear_subscript_rejected(self):
        b = ProgramBuilder("p")
        I, J = b.indices("I", "J")
        with pytest.raises(NonAffineError):
            _ = I * J

    def test_scalar_handle(self):
        b = ProgramBuilder("p")
        s = b.scalar("S")
        b.assign(s.scalar, 1.0)
        prog = b.build()
        assert prog.statements[0].lhs.rank == 0


class TestLoopQueries:
    def test_trip_count(self):
        loop = Loop.make("I", 1, "N", [])
        assert loop.trip_count({"N": 10}) == 10
        assert loop.trip_count({"N": 0}) == 0

    def test_trip_count_with_step(self):
        loop = Loop.make("I", 1, 10, [], step=3)
        assert loop.trip_count({}) == 4  # 1,4,7,10
        assert list(loop.iter_values({})) == [1, 4, 7, 10]

    def test_negative_step(self):
        loop = Loop.make("I", 10, 1, [], step=-1)
        assert loop.trip_count({}) == 10
        assert list(loop.iter_values({})) == list(range(10, 0, -1))

    @given(
        st.integers(-6, 6),
        st.integers(-6, 6),
        st.sampled_from([-2, -1, 1, 2, 3]),
        st.integers(-3, 3),
    )
    @example(lb=1, ub=8, step=-1, n=0)  # empty reversed range
    @example(lb=3, ub=1, step=1, n=0)  # empty forward range
    @example(lb=1, ub=8, step=2, n=0)  # step 2, ub never reached
    @example(lb=8, ub=1, step=-1, n=0)
    def test_constant_trip_matches_iteration(self, lb, ub, step, n):
        # Constant span, symbolic bounds: DO I = N+lb, N+ub, step.
        loop = Loop.make("I", Affine.var("N") + lb, Affine.var("N") + ub, [], step=step)
        env = {"N": n}
        assert loop.constant_trip() == len(loop.iter_values(env))
        assert loop.constant_trip() == loop.trip_count(env)

    def test_constant_trip_symbolic_span(self):
        loop = Loop.make("I", 1, "N", [])
        assert loop.constant_trip() is None
        assert loop.constant_trip({"N": 10}) == 10

    def test_zero_step_rejected(self):
        with pytest.raises(IRError):
            Loop.make("I", 1, 10, [], step=0)

    def test_perfect_nest_detection(self):
        prog = build_matmul()
        top = prog.top_loops[0]
        assert top.is_perfect_nest()
        chain = top.perfect_nest_loops()
        assert [l.var for l in chain] == ["J", "K", "I"]
        assert top.depth == 3

    def test_imperfect_nest_detection(self):
        b = ProgramBuilder("p")
        N = b.param("N", 4)
        I, J = b.indices("I", "J")
        A = b.array("A", (N, N))
        with b.loop(I, 1, N):
            b.assign(A[I, 1], 0.0)
            with b.loop(J, 1, N):
                b.assign(A[I, J], 1.0)
        prog = b.build()
        top = prog.top_loops[0]
        assert not top.is_perfect_nest()
        assert top.perfect_nest_loops() == (top,)

    def test_enclosing_loops(self):
        prog = build_matmul()
        chains = enclosing_loops(prog)
        assert [l.var for l in chains[0]] == ["J", "K", "I"]


class TestValidation:
    def test_undeclared_array(self):
        prog = Program.make(
            "p",
            [Assign(Ref.make("A", "I"), Ref.make("A", "I"))],
        )
        with pytest.raises(IRError):
            validate_program(prog)

    def test_rank_mismatch(self):
        b = ProgramBuilder("p")
        N = b.param("N", 4)
        (I,) = b.indices("I")
        A = b.array("A", (N, N))
        with b.loop(I, 1, N):
            b.assign(A[I, I], 0.0)
        prog = b.build()
        bad = prog.with_body(
            [prog.top_loops[0].with_body([Assign(Ref.make("A", "I"), A[I, I].subs and A[I, I], sid=0)])]
        )
        with pytest.raises(IRError):
            validate_program(bad)

    def test_out_of_scope_index(self):
        b = ProgramBuilder("p")
        N = b.param("N", 4)
        I, J = b.indices("I", "J")
        A = b.array("A", (N,))
        with b.loop(I, 1, N):
            b.assign(A[J], 0.0)  # J not in scope
        with pytest.raises(IRError):
            b.build()

    def test_shadowed_index(self):
        inner = Loop.make("I", 1, 4, [])
        outer = Loop.make("I", 1, 4, [inner])
        prog = Program.make("p", [outer])
        with pytest.raises(IRError):
            validate_program(prog)


class TestPretty:
    def test_matmul_pretty(self):
        text = pretty_program(build_matmul())
        assert "PROGRAM matmul" in text
        assert "DO J = 1, N" in text
        assert "C(I, J) = (C(I, J) + (A(I, K) * B(K, J)))" in text
        assert text.count("ENDDO") == 3

    def test_step_printed(self):
        loop = Loop.make("I", 1, 10, [], step=2)
        prog = Program.make("p", [loop])
        assert "DO I = 1, 10, 2" in pretty_program(prog)
