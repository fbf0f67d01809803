import numpy as np
import pytest

from dremnet.topology import (
    PeriodicGraph,
    StaticGraph,
    TableGraph,
    closed_in_neighborhood,
    edges_at,
    in_neighbors,
    out_neighbors,
    ring,
)


class TestRing:
    def test_four_sensor_ring(self):
        g = ring(4)
        assert g.edges == ((1, 2), (2, 3), (3, 4), (4, 1))
        assert in_neighbors(g, 1, 0) == (4,)
        assert out_neighbors(g, 1, 0) == (2,)
        assert closed_in_neighborhood(g, 3, 7) == (2, 3)

    def test_two_sensor_ring(self):
        g = ring(2)
        assert g.edges == ((1, 2), (2, 1))
        assert in_neighbors(g, 1, 0) == (2,)

    def test_too_small(self):
        with pytest.raises(ValueError):
            ring(1)


class TestNeighborQueries:
    def test_empty_graph(self):
        g = StaticGraph(n=3, edges=())
        assert in_neighbors(g, 2, 0) == ()
        assert out_neighbors(g, 2, 0) == ()
        assert closed_in_neighborhood(g, 2, 0) == (2,)

    def test_fully_connected_closed_neighborhood(self):
        n = 4
        g = StaticGraph(
            n=n, edges=tuple((j, i) for j in range(1, n + 1) for i in range(1, n + 1) if j != i)
        )
        assert closed_in_neighborhood(g, 2, 0) == (1, 2, 3, 4)

    def test_transpose_symmetry(self):
        # j in in_neighbors(i) iff i in out_neighbors(j), every k
        g = PeriodicGraph(n=4, stages=(((1, 2), (3, 2)), ((2, 4),), ()))
        for k in range(6):
            for i in range(1, 5):
                for j in in_neighbors(g, i, k):
                    assert i in out_neighbors(g, j, k)
                for r in out_neighbors(g, i, k):
                    assert i in in_neighbors(g, r, k)

    def test_static_ignores_step(self):
        g = ring(3)
        assert edges_at(g, 0) == edges_at(g, 10_000)

    def test_duplicates_collapse(self):
        g = StaticGraph(n=2, edges=((1, 2), (1, 2)))
        assert in_neighbors(g, 2, 0) == (1,)

    def test_sensor_range_checked(self):
        g = ring(3)
        with pytest.raises(ValueError):
            in_neighbors(g, 0, 0)
        with pytest.raises(ValueError):
            out_neighbors(g, 4, 0)

    def test_negative_step_rejected(self):
        with pytest.raises(ValueError):
            edges_at(ring(3), -1)


class TestTimeVarying:
    def test_periodic_cycles(self):
        g = PeriodicGraph(n=3, stages=(((1, 2),), ((2, 3),)))
        assert edges_at(g, 0) == ((1, 2),)
        assert edges_at(g, 1) == ((2, 3),)
        assert edges_at(g, 2) == ((1, 2),)
        assert edges_at(g, 101) == ((2, 3),)

    def test_table_holds_last_entry(self):
        # edge (3, 4) on even steps only, within the table ending at k=6
        table = tuple(((3, 4),) if k % 2 == 0 else () for k in range(7))
        g = TableGraph(n=4, table=table)
        assert edges_at(g, 5) == ()
        assert edges_at(g, 6) == ((3, 4),)
        assert edges_at(g, 7) == ((3, 4),)  # held
        assert edges_at(g, 500) == ((3, 4),)

    # an empty schedule is refused when built, so no query ever reaches one

    def test_period_zero_raises_on_query(self):
        with pytest.raises(ValueError, match="period 0"):
            edges_at(PeriodicGraph(n=2, stages=()), 0)

    def test_empty_table_raises_on_query(self):
        with pytest.raises(ValueError, match="no entries"):
            edges_at(TableGraph(n=2, table=()), 0)


class TestValidation:
    # graphs check their own edges when constructed

    def test_clean_ring(self):
        g = StaticGraph(n=4, edges=[[1, 2], [2, 3], [3, 4], [4, 1]])
        assert g == ring(4)

    def test_out_of_range_edge(self):
        with pytest.raises(ValueError, match=r"^static edge set: edge \(5, 1\) out of range for n=4$"):
            StaticGraph(n=4, edges=((5, 1),))

    def test_self_loop(self):
        with pytest.raises(ValueError, match=r"^static edge set: self-loop \(2, 2\) not allowed$"):
            StaticGraph(n=3, edges=((2, 2),))

    def test_period_zero_reported(self):
        with pytest.raises(ValueError, match="^periodic schedule has period 0$"):
            PeriodicGraph(n=2, stages=())

    def test_empty_table_reported(self):
        with pytest.raises(ValueError, match="^table schedule has no entries$"):
            TableGraph(n=2, table=())

    def test_bad_stage_located(self):
        with pytest.raises(ValueError, match=r"^stage 1: edge \(0, 3\) out of range for n=3$"):
            PeriodicGraph(n=3, stages=(((1, 2),), ((0, 3),)))
        with pytest.raises(ValueError, match=r"^step 2: self-loop \(1, 1\) not allowed$"):
            TableGraph(n=2, table=((), ((1, 2),), ((1, 1),)))

    def test_every_bad_edge_listed(self):
        with pytest.raises(ValueError, match=r"^stage 0: edge \(3, 1\) .*; stage 1: self-loop \(2, 2\) "):
            PeriodicGraph(n=2, stages=(((3, 1), (1, 2)), ((2, 2),)))

    def test_endpoints_are_not_coerced(self):
        bad = r"edge \('1', '2'\) needs integer endpoints; .* edge \(2\.9, 1\) needs"
        with pytest.raises(ValueError, match=bad):
            StaticGraph(n=2, edges=[("1", "2"), (2.9, 1)])
        with pytest.raises(ValueError, match=r"edge \(True, 2\) needs integer endpoints"):
            StaticGraph(n=2, edges=[(True, 2)])

    def test_numpy_integer_endpoints(self):
        g = StaticGraph(n=2, edges=[(np.int64(1), np.int32(2))])
        assert in_neighbors(g, 2, 0) == (1,)
