import re

import numpy as np
import pytest

from dremnet.topology import (
    PeriodicGraph,
    StaticGraph,
    TableGraph,
    closed_in_neighborhood,
    edges_at,
    in_neighbors,
    neighborhood_index,
    neighborhood_sum,
    out_neighbors,
    ring,
)


class TestRing:
    def test_four_sensor_ring(self):
        g = ring(4)
        assert g.stages == (((1, 2), (2, 3), (3, 4), (4, 1)),)
        assert in_neighbors(g, 1, 0) == (4,)
        assert out_neighbors(g, 1, 0) == (2,)
        assert closed_in_neighborhood(g, 3, 7) == (2, 3)

    def test_two_sensor_ring(self):
        g = ring(2)
        assert g.stages == (((1, 2), (2, 1)),)
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
        with pytest.raises(ValueError, match=r"^sensor id 0 outside 1\.\.3$"):
            in_neighbors(g, 0, 0)
        with pytest.raises(ValueError, match=r"^sensor id 4 outside 1\.\.3$"):
            out_neighbors(g, 4, 0)

    def test_negative_step_rejected(self):
        with pytest.raises(ValueError):
            edges_at(ring(3), -1)

    def test_step_is_an_integer(self):
        with pytest.raises(ValueError, match=r"^step index must be an integer, got 1\.5$"):
            edges_at(ring(3), 1.5)

    @pytest.mark.parametrize("query", [in_neighbors, out_neighbors])
    @pytest.mark.parametrize("sensor", [1.5, True])
    def test_sensor_is_an_integer(self, query, sensor):
        with pytest.raises(ValueError, match=rf"^sensor id must be an integer, got {sensor!r}$"):
            query(ring(3), sensor, 0)


class TestSensorCount:
    @pytest.mark.parametrize(
        "make",
        [lambda n: PeriodicGraph(n=n, stages=(((1, 2),),)), lambda n: TableGraph(n=n, table=(((1, 2),),))],
        ids=["periodic", "table"],
    )
    @pytest.mark.parametrize("n", [True, 2.5, "2"], ids=["bool", "float", "str"])
    def test_n_is_an_integer(self, make, n):
        with pytest.raises(ValueError, match=rf"^n must be an integer, got {re.escape(repr(n))}$"):
            make(n)

    def test_ring_n_is_an_integer(self):
        with pytest.raises(ValueError, match=r"^n must be an integer, got 3\.0$"):
            ring(3.0)

    def test_numpy_n_accepted_and_zero_refused(self):
        assert in_neighbors(ring(np.int64(3)), 1, 0) == (3,)
        with pytest.raises(ValueError, match="^n must be at least 1, got 0$"):
            TableGraph(n=0, table=((),))


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


class TestNeighborhoodSum:
    @staticmethod
    def loop_sum(g, values):
        # each closed neighborhood's members added in ascending order from 0.0
        out = np.zeros(values.shape)
        for i in range(1, g.n + 1):
            for k in range(values.shape[1]):
                acc = 0.0
                for j in closed_in_neighborhood(g, i, k):
                    acc += values[j - 1, k]
                out[i - 1, k] = acc
        return out

    @pytest.mark.parametrize("table", [False, True], ids=["sec5_ring", "table"])
    def test_equals_ascending_loop(self, table, sec5):
        # the table graph's in-degrees change by step (0 to 3 in-neighbours),
        # so most neighborhoods are padded; on three or more mixed-sign
        # members the order of the additions shows in the bits
        g = sec5.graph
        if table:
            patterns = (
                ((1, 2), (3, 2), (4, 2), (2, 3), (4, 3)),
                (),
                ((2, 1), (3, 1), (1, 4), (2, 4), (3, 4)),
                ((4, 1),),
            )
            g = TableGraph(n=4, table=tuple(patterns[k % 4] for k in range(12)))
        rng = np.random.default_rng(12)
        K = 16
        values = rng.normal(size=(4, K))
        got = neighborhood_sum(neighborhood_index(g, K), values)
        assert got.tobytes() == self.loop_sum(g, values).tobytes()

    @pytest.mark.parametrize(
        "horizon, message",
        [
            (-1, "horizon must be nonnegative, got -1"),
            (2.5, "horizon must be an integer, got 2.5"),
            (True, "horizon must be an integer, got True"),
        ],
    )
    def test_horizon_checked(self, horizon, message):
        # -1 gave an empty index, 2.5 a bare TypeError and True one step
        with pytest.raises(ValueError, match=f"^{message}$"):
            neighborhood_index(ring(3), horizon)

    def test_numpy_horizon_accepted(self):
        index = neighborhood_index(ring(3), np.int64(2))
        assert index.shape == (3, 2, 2)
        assert index.tobytes() == neighborhood_index(ring(3), 2).tobytes()


class TestValidation:
    # graphs check their own edges when constructed

    def test_clean_ring(self):
        g = StaticGraph(n=4, edges=[[1, 2], [2, 3], [3, 4], [4, 1]])
        assert g == ring(4)

    def test_static_is_one_stage_periodic(self):
        edges = ((1, 2), (3, 1))
        assert StaticGraph(3, edges) == PeriodicGraph(3, (edges,))
        assert hash(StaticGraph(3, edges)) == hash(PeriodicGraph(3, (edges,)))
        assert ring(4) == PeriodicGraph(4, (((1, 2), (2, 3), (3, 4), (4, 1)),))

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

    def test_one_stage_errors_read_static(self):
        # a static graph is a periodic graph of one stage, so its errors match
        # however it was built; with two stages each error names its stage
        for one_stage in (
            lambda: StaticGraph(n=3, edges=((1, 4),)),
            lambda: PeriodicGraph(n=3, stages=(((1, 4),),)),
        ):
            with pytest.raises(ValueError, match=r"^static edge set: edge \(1, 4\) out of range for n=3$"):
                one_stage()
        with pytest.raises(ValueError, match=r"^stage 0: edge \(1, 4\) out of range for n=3$"):
            PeriodicGraph(n=3, stages=(((1, 4),), ()))

    def test_numpy_integer_endpoints(self):
        g = StaticGraph(n=2, edges=[(np.int64(1), np.int32(2))])
        assert in_neighbors(g, 2, 0) == (1,)
