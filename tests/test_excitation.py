import re

import numpy as np
import pytest

from dremnet.excitation import (
    MARGIN_REL_TOL,
    find_certificate,
    local_pe_check,
    single_sensor_pe,
)
from dremnet.topology import StaticGraph, neighborhood_index, neighborhood_sum, neighborhood_values, ring

from test_harness import delta_traces


def step_sums(g, delta):
    """Each sensor's closed-neighborhood sum of squared traces per step on graph g."""
    delta = np.asarray(delta, dtype=float)
    return neighborhood_sum(neighborhood_index(g, delta.shape[1]), delta**2)


def oracle_min_window(neighborhood_sums, H, start):
    """Brute-force minimum window sum, written independently of the scanner."""
    K = len(neighborhood_sums)
    return min(sum(neighborhood_sums[k : k + H]) for k in range(start, K - H + 1))


@pytest.fixture(scope="module")
def sec5_trace(sec5):
    return delta_traces(sec5, horizon=200)


class TestValidation:
    def test_trace_shape_and_finiteness(self):
        # every scan refuses what DeltaTrace once refused: no (sensor, step)
        # array, a non-finite entry, or a dimension below 1
        for scan in (
            lambda v, d: local_pe_check(v, d, 1, 1.0),
            lambda v, d: find_certificate(v, d, 1.0, 3),
            lambda v, d: single_sensor_pe(v, d, 1.0, 3),
        ):
            with pytest.raises(ValueError, match=r"must be a 2-d \(sensor, step\) array, got shape \(5,\)"):
                scan(np.zeros(5), 1)
            with pytest.raises(ValueError, match="step sums must be finite"):
                scan(np.array([[np.inf, 0.0]]), 1)
            with pytest.raises(ValueError, match="step sums must be finite"):
                scan(np.array([[np.nan, 0.0]]), 1)
            with pytest.raises(ValueError, match="^d must be at least 1, got 0$"):
                scan(np.zeros((2, 5)), 0)

    def test_window_args(self):
        sums = np.ones((1, 10))
        with pytest.raises(ValueError, match="^H must be at least 1, got 0$"):
            local_pe_check(sums, 1, H=0, omega=1.0)
        with pytest.raises(ValueError):
            local_pe_check(sums, 1, H=1, omega=0.0)
        with pytest.raises(ValueError, match="horizon 3 is shorter than the window H=5"):
            local_pe_check(sums[:, :3], 1, H=5, omega=1.0)
        with pytest.raises(ValueError, match="^max_h must be at least 1, got 0$"):
            find_certificate(sums, 1, omega=1.0, max_h=0)
        with pytest.raises(ValueError, match="^max_h must be at least 1, got -2$"):
            single_sensor_pe(sums, 1, omega=1.0, max_h=-2)

    @pytest.mark.parametrize(
        "scan, name",
        [
            (lambda n: local_pe_check(np.ones((1, 10)), 1, n, 1.0).margin, "H"),
            (lambda n: find_certificate(np.ones((1, 10)), 1, 1.0, n), "max_h"),
            (lambda n: single_sensor_pe(np.ones((1, 10)), 1, 1.0, n), "max_h"),
            (lambda n: local_pe_check(np.ones((1, 10)), n, 1, 1.0).margin, "d"),
        ],
        ids=["H", "find_max_h", "single_max_h", "d"],
    )
    def test_window_lengths_must_be_integers(self, scan, name):
        # as run_monte_carlo's counts: no float, no bool, whatever its value
        for bad in (2.5, 2.0, True, "2"):
            with pytest.raises(ValueError, match=f"^{name} must be an integer, got {re.escape(repr(bad))}$"):
                scan(bad)
        assert scan(np.int64(2)) == scan(2)

    @pytest.mark.parametrize("omega", [float("nan"), float("inf"), -1.0, 0.0])
    def test_omega_must_be_finite_and_positive(self, omega):
        sums = np.ones((1, 10))
        with pytest.raises(ValueError, match="omega must be finite and positive"):
            local_pe_check(sums, 1, H=1, omega=omega)
        with pytest.raises(ValueError, match="omega must be finite and positive"):
            single_sensor_pe(sums, 1, omega=omega, max_h=3)
        with pytest.raises(ValueError, match="omega must be finite and positive"):
            find_certificate(sums, 1, omega=omega, max_h=3)

    @pytest.mark.parametrize("omega", ["1", True, None])
    def test_omega_must_be_a_number(self, omega):
        sums = np.ones((1, 10))
        message = f"^omega must be a number, got {re.escape(repr(omega))}$"
        with pytest.raises(ValueError, match=message):
            local_pe_check(sums, 1, H=1, omega=omega)
        with pytest.raises(ValueError, match=message):
            find_certificate(sums, 1, omega=omega, max_h=3)

    def test_certificate_search_stops_at_the_horizon(self):
        # one nonzero step in four: only H = 4 certifies, and a horizon of 3
        # allows no window that long
        delta = np.array([[0.0, 0.0, 0.0, 1.0] * 3])
        assert single_sensor_pe(delta, 1, omega=1.0, max_h=8)[0] == {1: 4}
        assert find_certificate(delta**2, 1, omega=1.0, max_h=8)[0] == {1: 4}
        assert find_certificate(delta[:, :3] ** 2, 1, omega=1.0, max_h=8) == ({1: None}, {1: 0.0})
        assert find_certificate(np.ones((1, 2)), 1, 1.0, max_h=8)[0] == {1: 1}
        with pytest.raises(ValueError, match="horizon 0 is shorter than the window H=1"):
            find_certificate(delta[:, :0], 1, omega=1.0, max_h=8)


class TestHandTraces:
    def test_alternating_single_sensor(self):
        # 0,1,0,1,...: H=2 windows always sum to 1; H=1 hits a zero
        delta = np.array([[0.0, 1.0, 0.0, 1.0, 0.0, 1.0]])
        assert single_sensor_pe(delta, 1, omega=1.0, max_h=8) == ({1: 2}, {1: 1.0})
        assert single_sensor_pe(delta, 1, omega=1.0, max_h=1) == ({1: None}, {1: 0.0})

    def test_all_zero_trace_never_satisfies(self):
        sums = step_sums(ring(2), np.zeros((2, 30)))
        for H in (1, 3, 10):
            cert = local_pe_check(sums, 1, H, omega=0.5)
            assert cert.satisfied == (False, False)
            assert cert.margin == (0.0, 0.0)
        found, margin = find_certificate(sums, 1, omega=0.5, max_h=10)
        assert found == {1: None, 2: None}
        assert margin == {1: 0.0, 2: 0.0}

    def test_warm_up_window_excluded(self):
        # zero at step 0 only; with d=2 the scan starts at step 1 and passes
        delta = np.array([[0.0, 1.0, 1.0, 1.0, 1.0]])
        assert single_sensor_pe(delta, 2, omega=1.0, max_h=1) == ({1: 1}, {1: 1.0})
        # same trace with d=1 must include the dead step
        assert single_sensor_pe(delta, 1, omega=1.0, max_h=1) == ({1: None}, {1: 0.0})

    def test_neighbor_serves_silent_sensor(self):
        # sensor 2 is silent but receives sensor 1's excited trace
        delta = np.array([[1.0, 1.0, 1.0, 1.0], [0.0, 0.0, 0.0, 0.0]])
        g = StaticGraph(n=2, edges=((1, 2),))
        cert = local_pe_check(step_sums(g, delta), 1, H=1, omega=1.0)
        assert cert.satisfied == (True, True)
        assert single_sensor_pe(delta, 1, omega=1.0, max_h=4)[0] == {1: 1, 2: None}

    def test_singleton_matches_single_sensor(self):
        rng = np.random.default_rng(7)
        delta = rng.uniform(-1, 1, size=(3, 40))
        sums = step_sums(StaticGraph(n=3, edges=()), delta)
        for max_h in (1, 2, 5):
            assert single_sensor_pe(delta, 2, 0.3, max_h) == find_certificate(sums, 2, 0.3, max_h)

    def test_margin_matches_bruteforce(self):
        rng = np.random.default_rng(8)
        vals = rng.uniform(-1, 1, size=(2, 25))
        sq = vals**2
        sums = step_sums(ring(2), vals)
        for H in (1, 3, 7):
            cert = local_pe_check(sums, 2, H, omega=0.5)
            for i in (1, 2):
                both = sq[0] + sq[1]  # ring(2): both neighborhoods are {1, 2}
                assert cert.margin[i - 1] == pytest.approx(
                    oracle_min_window(both, H, start=1), rel=1e-12
                )


class TestMonotonicity:
    def test_margin_grows_with_window(self):
        rng = np.random.default_rng(9)
        sums = step_sums(ring(4), rng.uniform(-1, 1, size=(4, 60)))
        prev = None
        for H in range(1, 8):
            cert = local_pe_check(sums, 2, H, omega=1.0)
            if prev is not None:
                # nonneg summands: the min H-window grows with H
                assert all(m >= p for m, p in zip(cert.margin, prev))
            prev = cert.margin

    def test_bigger_neighborhood_never_hurts(self):
        rng = np.random.default_rng(10)
        vals = rng.uniform(-1, 1, size=(3, 40))
        sparse = step_sums(StaticGraph(n=3, edges=((1, 2),)), vals)
        dense = step_sums(StaticGraph(n=3, edges=((1, 2), (3, 2), (2, 1))), vals)
        for H in (1, 4):
            c_sparse = local_pe_check(sparse, 1, H, omega=1.0)
            c_dense = local_pe_check(dense, 1, H, omega=1.0)
            assert all(md >= ms for md, ms in zip(c_dense.margin, c_sparse.margin))


class TestBuiltinScenario:
    @pytest.fixture(scope="class")
    def sec5_sums(self, sec5, sec5_trace):
        return step_sums(sec5.graph, sec5_trace)

    def test_certificates(self, sec5_sums):
        found, margin = find_certificate(sec5_sums, 2, omega=1.0, max_h=8)
        assert found == {1: 1, 2: 1, 3: 2, 4: 2}

    def test_wide_window_margins(self, sec5_sums):
        cert = local_pe_check(sec5_sums, 2, H=8, omega=1.0)
        assert cert.satisfied == (True, True, True, True)
        np.testing.assert_allclose(cert.margin, [8.0, 12.0, 8.0, 4.0], rtol=1e-9)

    def test_single_sensor_results(self, sec5_trace):
        found, margin = single_sensor_pe(sec5_trace, 2, omega=1.0, max_h=8)
        # sensor 1 alternates +-1: every window sums exactly to H
        assert found[1] == 1 and margin[1] == 1.0
        # sensor 3's trace vanishes on even steps, needs H=2
        assert found[3] == 2 and margin[3] == pytest.approx(1.0, rel=1e-9)
        assert single_sensor_pe(sec5_trace[2:3], 2, omega=1.0, max_h=1)[0] == {1: None}

    def test_sensor4_alone_is_never_excited(self, sec5_trace):
        # constant regressor: delta_bar identically zero, no window helps
        for max_h in (1, 10, 50):
            found, margin = single_sensor_pe(sec5_trace, 2, omega=1.0, max_h=max_h)
            assert found[4] is None and margin[4] == 0.0

    def test_certificate_consistency(self, sec5_sums):
        found, margin = find_certificate(sec5_sums, 2, omega=1.0, max_h=8)
        for i, H in found.items():
            cert = local_pe_check(sec5_sums, 2, H, omega=1.0)
            assert cert.satisfied[i - 1]
            assert cert.margin[i - 1] == margin[i]
            if H > 1:
                below = local_pe_check(sec5_sums, 2, H - 1, omega=1.0)
                assert not below.satisfied[i - 1]


def per_window_search(delta, d, g, omega, max_h, horizon):
    """Reference for find_certificate: each H rebuilds the neighborhood sums and scans them.

    Returns the certified H per sensor and, per H tried, the margins. Window
    sums add their H steps in ascending t from 0.0, as the scanner does.
    """
    n = delta.shape[0]
    top = min(max_h, max(horizon, 1))
    found = {i: None for i in range(1, n + 1)}
    margins = {}
    for H in range(1, top + 1):
        index = neighborhood_index(g, horizon)
        members = neighborhood_values(index, delta[:, :horizon] ** 2)
        sums = np.zeros((n, horizon))
        for p in range(index.shape[2]):
            sums += members[:, :, p]
        start = min(d - 1, horizon - H)
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
    delta = delta_traces(s, horizon)
    sums = step_sums(g, delta)
    for omega in (1.0, 25.0):
        want, margins = per_window_search(delta, s.d, g, omega, 8, horizon)
        found, margin = find_certificate(sums, s.d, omega, 8)
        assert found == want
        # a sensor's margin is at its certified H, or without one at the last H tried
        top = max(margins)
        for i, h in found.items():
            assert np.float64(margin[i]).tobytes() == np.float64(margins[h or top][i - 1]).tobytes()
        for H, ref in margins.items():
            got = local_pe_check(sums, s.d, H, omega).margin
            assert np.array(got).tobytes() == np.array(ref).tobytes()


@pytest.mark.parametrize("name, horizon", [("sec5", 300), ("periodic_d3", 40), ("table_d5", 40)])
def test_single_sensor_is_its_edgeless_entry(name, horizon, request):
    # a sensor alone scans its own squares; on the edgeless graph each
    # neighborhood sum is 0.0 + delta_bar^2, the same bits
    s = request.getfixturevalue(name)
    delta = delta_traces(s, horizon)
    edgeless = step_sums(StaticGraph(s.n, ()), delta)
    for omega in (1.0, 25.0):
        for max_h in range(1, 9):
            found, margin = single_sensor_pe(delta, s.d, omega, max_h)
            want, want_margin = find_certificate(edgeless, s.d, omega, max_h)
            assert found == want
            assert np.array(list(margin.values())).tobytes() == np.array(list(want_margin.values())).tobytes()
