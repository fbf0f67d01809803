import numpy as np
import pytest

from dremnet.excitation import (
    MARGIN_REL_TOL,
    DeltaTrace,
    find_certificate,
    local_pe_check,
    single_sensor_pe,
)
from dremnet.topology import StaticGraph, neighborhood_index, neighborhood_values, ring

from test_harness import delta_traces


def oracle_min_window(neighborhood_sums, H, start):
    """Brute-force minimum window sum, written independently of the scanner."""
    K = len(neighborhood_sums)
    return min(sum(neighborhood_sums[k : k + H]) for k in range(start, K - H + 1))


@pytest.fixture(scope="module")
def sec5_trace(sec5):
    return delta_traces(sec5, horizon=200)


class TestValidation:
    def test_trace_shape_and_finiteness(self):
        with pytest.raises(ValueError):
            DeltaTrace(values=np.zeros(5))
        with pytest.raises(ValueError):
            DeltaTrace(values=np.array([[np.inf, 0.0]]))
        with pytest.raises(ValueError):
            DeltaTrace(values=np.zeros((2, 5)), d=0)

    def test_window_args(self):
        trace = DeltaTrace(values=np.ones((1, 10)), d=1)
        g = StaticGraph(n=1, edges=())
        with pytest.raises(ValueError):
            local_pe_check(trace, g, H=0, omega=1.0)
        with pytest.raises(ValueError):
            local_pe_check(trace, g, H=1, omega=0.0)
        with pytest.raises(ValueError, match="horizon 3 is shorter than the window H=5"):
            local_pe_check(DeltaTrace(values=trace.values[:, :3]), g, H=5, omega=1.0)
        with pytest.raises(ValueError):
            single_sensor_pe(trace, 2, H=1, omega=1.0)
        with pytest.raises(ValueError):
            find_certificate(trace, g, omega=1.0, max_h=0)

    @pytest.mark.parametrize("omega", [float("nan"), float("inf"), -1.0, 0.0])
    def test_omega_must_be_finite_and_positive(self, omega):
        trace = DeltaTrace(values=np.ones((1, 10)), d=1)
        g = StaticGraph(n=1, edges=())
        with pytest.raises(ValueError, match="omega must be finite and positive"):
            local_pe_check(trace, g, H=1, omega=omega)
        with pytest.raises(ValueError, match="omega must be finite and positive"):
            single_sensor_pe(trace, 1, H=1, omega=omega)
        with pytest.raises(ValueError, match="omega must be finite and positive"):
            find_certificate(trace, g, omega=omega, max_h=3)

    def test_certificate_search_stops_at_the_horizon(self):
        # one nonzero step in four: only H = 4 certifies, and a horizon of 3
        # allows no window that long
        g = StaticGraph(n=1, edges=())
        trace = DeltaTrace(values=np.array([[0.0, 0.0, 0.0, 1.0] * 3]), d=1)
        assert find_certificate(trace, g, omega=1.0, max_h=8) == {1: 4}
        assert find_certificate(DeltaTrace(values=trace.values[:, :3]), g, omega=1.0, max_h=8) == {1: None}
        assert find_certificate(DeltaTrace(values=np.ones((1, 2))), g, 1.0, max_h=8) == {1: 1}
        with pytest.raises(ValueError, match="horizon 0 is shorter than the window H=1"):
            find_certificate(DeltaTrace(values=trace.values[:, :0]), g, omega=1.0, max_h=8)


class TestHandTraces:
    def test_alternating_single_sensor(self):
        # 0,1,0,1,...: H=2 windows always sum to 1; H=1 hits a zero
        trace = DeltaTrace(values=np.array([[0.0, 1.0, 0.0, 1.0, 0.0, 1.0]]), d=1)
        ok2, margin2 = single_sensor_pe(trace, 1, H=2, omega=1.0)
        assert ok2 and margin2 == 1.0
        ok1, margin1 = single_sensor_pe(trace, 1, H=1, omega=1.0)
        assert not ok1 and margin1 == 0.0

    def test_all_zero_trace_never_satisfies(self):
        trace = DeltaTrace(values=np.zeros((2, 30)), d=1)
        g = ring(2)
        for H in (1, 3, 10):
            cert = local_pe_check(trace, g, H, omega=0.5)
            assert cert.satisfied == (False, False)
            assert cert.margin == (0.0, 0.0)
        found = find_certificate(trace, g, omega=0.5, max_h=10)
        assert found == {1: None, 2: None}

    def test_warm_up_window_excluded(self):
        # zero at step 0 only; with d=2 the scan starts at step 1 and passes
        trace = DeltaTrace(values=np.array([[0.0, 1.0, 1.0, 1.0, 1.0]]), d=2)
        ok, margin = single_sensor_pe(trace, 1, H=1, omega=1.0)
        assert ok and margin == 1.0
        # same trace with d=1 must include the dead step
        trace1 = DeltaTrace(values=trace.values, d=1)
        ok1, margin1 = single_sensor_pe(trace1, 1, H=1, omega=1.0)
        assert not ok1 and margin1 == 0.0

    def test_neighbor_serves_silent_sensor(self):
        # sensor 2 is silent but receives sensor 1's excited trace
        vals = np.array([[1.0, 1.0, 1.0, 1.0], [0.0, 0.0, 0.0, 0.0]])
        trace = DeltaTrace(values=vals, d=1)
        g = StaticGraph(n=2, edges=((1, 2),))
        cert = local_pe_check(trace, g, H=1, omega=1.0)
        assert cert.satisfied == (True, True)
        ok_single, _ = single_sensor_pe(trace, 2, H=1, omega=1.0)
        assert not ok_single

    def test_singleton_matches_single_sensor(self):
        rng = np.random.default_rng(7)
        trace = DeltaTrace(values=rng.uniform(-1, 1, size=(3, 40)), d=2)
        g = StaticGraph(n=3, edges=())
        for H in (1, 2, 5):
            cert = local_pe_check(trace, g, H, omega=0.3)
            for i in (1, 2, 3):
                ok, margin = single_sensor_pe(trace, i, H, omega=0.3)
                assert cert.margin[i - 1] == margin
                assert cert.satisfied[i - 1] == ok

    def test_margin_matches_bruteforce(self):
        rng = np.random.default_rng(8)
        vals = rng.uniform(-1, 1, size=(2, 25))
        trace = DeltaTrace(values=vals, d=2)
        g = ring(2)
        sq = vals ** 2
        for H in (1, 3, 7):
            cert = local_pe_check(trace, g, H, omega=0.5)
            for i in (1, 2):
                sums = sq[0] + sq[1]  # ring(2): both neighborhoods are {1, 2}
                assert cert.margin[i - 1] == pytest.approx(
                    oracle_min_window(sums, H, start=1), rel=1e-12
                )


class TestMonotonicity:
    def test_margin_grows_with_window(self):
        rng = np.random.default_rng(9)
        trace = DeltaTrace(values=rng.uniform(-1, 1, size=(4, 60)), d=2)
        g = ring(4)
        prev = None
        for H in range(1, 8):
            cert = local_pe_check(trace, g, H, omega=1.0)
            if prev is not None:
                # nonneg summands: the min H-window grows with H
                assert all(m >= p for m, p in zip(cert.margin, prev))
            prev = cert.margin

    def test_bigger_neighborhood_never_hurts(self):
        rng = np.random.default_rng(10)
        vals = rng.uniform(-1, 1, size=(3, 40))
        trace = DeltaTrace(values=vals, d=1)
        sparse = StaticGraph(n=3, edges=((1, 2),))
        dense = StaticGraph(n=3, edges=((1, 2), (3, 2), (2, 1)))
        for H in (1, 4):
            c_sparse = local_pe_check(trace, sparse, H, omega=1.0)
            c_dense = local_pe_check(trace, dense, H, omega=1.0)
            assert all(md >= ms for md, ms in zip(c_dense.margin, c_sparse.margin))


class TestBuiltinScenario:
    def test_certificates(self, sec5_trace, sec5):
        found = find_certificate(sec5_trace, sec5.graph, omega=1.0, max_h=8)
        assert found == {1: 1, 2: 1, 3: 2, 4: 2}

    def test_wide_window_margins(self, sec5_trace, sec5):
        cert = local_pe_check(sec5_trace, sec5.graph, H=8, omega=1.0)
        assert cert.satisfied == (True, True, True, True)
        np.testing.assert_allclose(cert.margin, [8.0, 12.0, 8.0, 4.0], rtol=1e-9)

    def test_single_sensor_results(self, sec5_trace):
        # sensor 1 alternates +-1: every window sums exactly to H
        ok, margin = single_sensor_pe(sec5_trace, 1, H=1, omega=1.0)
        assert ok and margin == 1.0
        # sensor 3's trace vanishes on even steps, needs H=2
        ok1, _ = single_sensor_pe(sec5_trace, 3, H=1, omega=1.0)
        assert not ok1
        ok2, margin2 = single_sensor_pe(sec5_trace, 3, H=2, omega=1.0)
        assert ok2 and margin2 == pytest.approx(1.0, rel=1e-9)

    def test_sensor4_alone_is_never_excited(self, sec5_trace):
        # constant regressor: delta_bar identically zero, no window helps
        for H in (1, 10, 50):
            ok, margin = single_sensor_pe(sec5_trace, 4, H, omega=1.0)
            assert not ok and margin == 0.0

    def test_certificate_consistency(self, sec5_trace, sec5):
        found = find_certificate(sec5_trace, sec5.graph, omega=1.0, max_h=8)
        for i, H in found.items():
            cert = local_pe_check(sec5_trace, sec5.graph, H, omega=1.0)
            assert cert.satisfied[i - 1]
            if H > 1:
                below = local_pe_check(sec5_trace, sec5.graph, H - 1, omega=1.0)
                assert not below.satisfied[i - 1]


def per_window_search(trace, g, omega, max_h, horizon):
    """Reference for find_certificate: each H rebuilds the neighborhood sums and scans them.

    Returns the certified H per sensor and, per H tried, the margins. Window
    sums add their H steps in ascending t from 0.0, as the scanner does.
    """
    top = min(max_h, max(horizon, 1))
    found = {i: None for i in range(1, trace.n + 1)}
    margins = {}
    for H in range(1, top + 1):
        index = neighborhood_index(g, horizon)
        members = neighborhood_values(index, trace.values[:, :horizon] ** 2)
        sums = np.zeros((trace.n, horizon))
        for p in range(index.shape[2]):
            sums += members[:, :, p]
        start = min(trace.d - 1, horizon - H)
        margins[H] = []
        for row in sums:
            w = np.zeros(horizon - H + 1 - start)
            for t in range(start, start + H):
                w += row[t : t + len(w)]
            margins[H].append(float(w.min()))
        for i, m in enumerate(margins[H], start=1):
            if found[i] is None and m >= omega * (1.0 - MARGIN_REL_TOL):
                found[i] = H
        if all(h is not None for h in found.values()):
            break
    return found, margins


@pytest.mark.parametrize("edgeless", [False, True], ids=["own_graph", "edgeless"])
@pytest.mark.parametrize("name, horizon", [("sec5", 300), ("periodic_d3", 40), ("table_d5", 40)])
def test_find_certificate_matches_per_window_search(name, horizon, edgeless, request):
    s = request.getfixturevalue(name)
    g = StaticGraph(s.n, ()) if edgeless else s.graph
    trace = delta_traces(s, horizon)
    for omega in (1.0, 25.0):
        want, margins = per_window_search(trace, g, omega, 8, horizon)
        assert find_certificate(trace, g, omega, 8) == want
        for H, ref in margins.items():
            got = local_pe_check(trace, g, H, omega).margin
            assert np.array(got).tobytes() == np.array(ref).tobytes()


@pytest.mark.parametrize("name, horizon", [("sec5", 300), ("periodic_d3", 40), ("table_d5", 40)])
def test_single_sensor_is_its_edgeless_entry(name, horizon, request):
    # a sensor alone scans its own squares; on the edgeless graph each
    # neighborhood sum is 0.0 + delta_bar^2, the same bits
    s = request.getfixturevalue(name)
    trace = delta_traces(s, horizon)
    for H in range(1, 9):
        cert = local_pe_check(trace, StaticGraph(s.n, ()), H, 1.0)
        for i in range(1, s.n + 1):
            ok, margin = single_sensor_pe(trace, i, H, 1.0)
            assert ok == cert.satisfied[i - 1]
            assert np.float64(margin).tobytes() == np.float64(cert.margin[i - 1]).tobytes()
