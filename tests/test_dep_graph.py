"""Tests for the SCC machinery and distribution's statement graph."""

from hypothesis import given, strategies as st

from repro.dependence import region_dependences
from repro.dependence.graph import strongly_connected_components
from repro.frontend import parse_program
from repro.transforms import finest_partitions


class TestSCC:
    def test_chain(self):
        sccs = strongly_connected_components([1, 2, 3], {1: [2], 2: [3], 3: []})
        assert sccs == [(1,), (2,), (3,)]

    def test_cycle(self):
        sccs = strongly_connected_components([1, 2, 3], {1: [2], 2: [1], 3: []})
        assert (1, 2) in sccs and (3,) in sccs

    def test_self_loop(self):
        sccs = strongly_connected_components([1], {1: [1]})
        assert sccs == [(1,)]

    def test_topological_order(self):
        # 3 -> {1,2 cycle} -> 4
        sccs = strongly_connected_components(
            [1, 2, 3, 4], {3: [1], 1: [2], 2: [1, 4], 4: []}
        )
        assert sccs.index((3,)) < sccs.index((1, 2)) < sccs.index((4,))

    def test_two_cycles(self):
        adj = {1: [2], 2: [1, 3], 3: [4], 4: [3]}
        sccs = strongly_connected_components([1, 2, 3, 4], adj)
        assert sccs == [(1, 2), (3, 4)]

    @given(
        st.integers(1, 8).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.lists(
                    st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                    max_size=20,
                ),
            )
        )
    )
    def test_scc_partition_property(self, case):
        n, edge_list = case
        nodes = list(range(n))
        adj = {i: [] for i in nodes}
        for a, b in edge_list:
            adj[a].append(b)
        sccs = strongly_connected_components(nodes, adj)
        # Partition: every node in exactly one component.
        flat = [x for comp in sccs for x in comp]
        assert sorted(flat) == nodes
        # Topological: no edge from a later component to an earlier one,
        # unless both endpoints share a component.
        comp_of = {x: i for i, comp in enumerate(sccs) for x in comp}
        for a, b in edge_list:
            assert comp_of[a] <= comp_of[b]


class TestFinestPartitions:
    """Distribution's statement graph: SCCs of the legality dependences."""

    @staticmethod
    def _nest(source):
        return parse_program(source).top_loops[0]

    def test_recurrence_detected(self):
        loop = self._nest(
            """
            PROGRAM p
            PARAMETER N = 10
            REAL A(N), B(N)
            DO I = 2, N
              A(I) = B(I-1)
              B(I) = A(I-1)
            ENDDO
            END
            """
        )
        assert finest_partitions(loop, loop, 1) == [tuple(loop.body)]

    def test_independent_statements_split(self):
        loop = self._nest(
            """
            PROGRAM p
            PARAMETER N = 10
            REAL A(N), B(N)
            DO I = 1, N
              A(I) = 1.0
              B(I) = 2.0
            ENDDO
            END
            """
        )
        first, second = loop.body
        assert finest_partitions(loop, loop, 1) == [(first,), (second,)]

    def test_restrict_to_level_breaks_outer_recurrence(self):
        # At level 2 the intact outer loop preserves a recurrence it
        # carries, so the statements separate; one the inner loop
        # carries stays whole.
        template = """
            PROGRAM p
            PARAMETER N = 10
            REAL A(N,N), B(N,N)
            DO I = 2, N
              DO J = 2, N
                A(I,J) = B({prev})
                B(I,J) = A({prev})
              ENDDO
            ENDDO
            END
            """
        outer = self._nest(template.format(prev="I-1,J"))
        inner = outer.body[0]
        first, second = inner.body
        assert finest_partitions(outer, inner, 2) == [(first,), (second,)]
        outer = self._nest(template.format(prev="I,J-1"))
        inner = outer.body[0]
        assert finest_partitions(outer, inner, 2) == [tuple(inner.body)]

    def test_input_dependences_excluded(self):
        # The two statements read each other's A elements an iteration
        # apart both ways: a cycle of input dependences only.
        loop = self._nest(
            """
            PROGRAM p
            PARAMETER N = 10
            REAL A(N), B(N), C(N)
            DO I = 1, N - 1
              B(I) = A(I) + A(I+1)
              C(I) = A(I) + A(I+1)
            ENDDO
            END
            """
        )
        first, second = loop.body
        reads = {
            (d.source.sid, d.sink.sid)
            for d in region_dependences(loop, include_inputs=True)
            if d.carried_level() == 1
        }
        assert {(first.sid, second.sid), (second.sid, first.sid)} <= reads
        assert finest_partitions(loop, loop, 1) == [(first,), (second,)]
