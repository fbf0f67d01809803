"""The vectorized deterministic layers against per-(sensor, step) loops.

The reference functions below are plain loops over sensors, steps and
neighbours, in the float operation order the vectorized table build, moment
oracle and excitation scans must keep: every output is compared byte for
byte.
"""

import numpy as np
import pytest

from dremnet.analysis import beta, moments, step_coefficients, theorem_check
from dremnet.drem import extend
from dremnet.estimator import asymptotic_violations, schedule_violations, step_size
from dremnet.excitation import MARGIN_REL_TOL, find_certificate, local_pe_check, single_sensor_pe
from dremnet.harness import check_scenario, step_tables
from dremnet.model import measure, regressor_table
from dremnet.topology import closed_in_neighborhood, neighborhood_index, neighborhood_sum

# horizons long enough for several gated updates per sensor and for the
# time-varying graphs to cycle, short enough for the d=5 adjugates; by
# K=1000 sec5 meets a gain alpha/(mu+S) whose square by libm pow (the
# scalar ** 2) differs from the product of the gain with itself
HORIZONS = {"sec5": 1000, "periodic_d3": 120, "table_d5": 40}
H_MAX = 8


def assert_same(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def reference_tables(s, K):
    n, d = s.n, s.d
    phi = np.zeros((n, K, d))
    y_det = np.zeros((n, K))
    delta = np.zeros((n, K))
    adj = np.zeros((n, K, d, d))
    for i in range(1, n + 1):
        # test_model checks these rows against regressor_at
        phi[i - 1] = regressor_table(s.generators[i - 1], K)
        hist = []
        for k in range(K):
            p = phi[i - 1, k]
            y_det[i - 1, k] = measure(s.theta, p, 0.0)
            hist.insert(0, p)
            if len(hist) > d:
                hist.pop()
            if len(hist) == d:
                delta[i - 1, k], adj[i - 1, k] = extend(hist)
    alpha = np.array([step_size(s.schedule, k) for k in range(K)])
    hoods = [[closed_in_neighborhood(s.graph, i, k) for k in range(K)] for i in range(1, n + 1)]
    gated = np.zeros((n, K))
    eff = np.zeros((n, K), dtype=bool)
    counters = np.zeros((n, K + 1), dtype=np.int64)
    c = [0] * n
    for k in range(K):
        for i in range(1, n + 1):
            acc = 0.0
            if c[i - 1] >= d:
                for j in hoods[i - 1][k]:
                    acc += delta[j - 1, k] * delta[j - 1, k]
            gated[i - 1, k] = acc
            eff[i - 1, k] = acc != 0.0
            c[i - 1] = 0 if acc != 0.0 else c[i - 1] + 1
            counters[i - 1, k + 1] = c[i - 1]
    width = max((len(h) for row in hoods for h in row), default=0)
    members = np.full((n, K, width), -1, dtype=np.intp)
    for i, row in enumerate(hoods):
        for k, h in enumerate(row):
            members[i, k, : len(h)] = [j - 1 for j in h]
    return dict(
        phi=phi, y_det=y_det, delta=delta, adj=adj, alpha=alpha, members=members,
        gated_sum=gated, effective=eff, counters=counters, hoods=hoods,
    )


def reference_coefficients(s, t):
    n, d, K = s.n, s.d, len(t["alpha"])
    noise_var = np.zeros((n, K, d))
    for j in range(n):
        for k in range(d - 1, K):
            rows = t["adj"][j, k]
            for l in range(d):
                noise_var[j, k, l] = s.variances[j] * float(np.dot(rows[l], rows[l]))
    bet = np.zeros((n, K))
    eps = np.zeros((n, K, d))
    for i in range(n):
        for k in range(K):
            srow = t["gated_sum"][i, k]
            if srow == 0.0:
                continue
            bet[i, k] = beta(t["alpha"][k], s.mu[i], srow)
            gain = (t["alpha"][k] / (s.mu[i] + srow)) ** 2
            for j in t["hoods"][i][k]:
                dlt = t["delta"][j - 1, k]
                eps[i, k] += gain * dlt * dlt * noise_var[j - 1, k]
    return dict(alpha=t["alpha"], beta=bet, epsilon=eps, gated_sum=t["gated_sum"], noise_var=noise_var)


def reference_moments(s, coef):
    n, K = coef["beta"].shape
    mean = np.zeros((n, K + 1, s.d))
    exact = np.zeros((n, K + 1, s.d))
    bound = np.zeros((n, K + 1, s.d))
    mean[:, 0] = s.theta_hat0 - s.theta[None, :]
    for k in range(K):
        damp = 1.0 - coef["beta"][:, k]
        mean[:, k + 1] = damp[:, None] * mean[:, k]
        exact[:, k + 1] = (damp * damp)[:, None] * exact[:, k] + coef["epsilon"][:, k]
        bound[:, k + 1] = damp[:, None] * bound[:, k] + coef["epsilon"][:, k]
    return dict(mean=mean, cov_exact=exact, cov_bound=bound)


def reference_margins(s, delta, H, K, hood):
    """Each sensor's smallest H-window sum of delta^2 over ``hood(i, t)``, its neighborhood at step t."""
    sq = delta ** 2
    margins = []
    for i in range(1, s.n + 1):
        step_sums = np.zeros(K)
        for t in range(K):
            for j in hood(i, t):
                step_sums[t] += sq[j - 1, t]
        best = np.inf
        for k in range(min(s.d - 1, K - H), K - H + 1):
            w = 0.0
            for t in range(k, k + H):
                w += step_sums[t]
            if w < best:
                best = w
        margins.append(float(best))
    return margins


def closed(s):
    return lambda i, t: closed_in_neighborhood(s.graph, i, t)


def reference_problems(s, delta, K, omega=1.0):
    problems = [
        f"sensor {i}: regressor sequence is unbounded"
        for i, g in enumerate(s.generators, start=1)
        if not np.isfinite(g.bound)
    ]
    margins = {H: reference_margins(s, delta, H, K, closed(s)) for H in range(1, H_MAX + 1)}
    for i in range(1, s.n + 1):
        if not any(m[i - 1] >= omega * (1.0 - MARGIN_REL_TOL) for m in margins.values()):
            problems.append(
                f"sensor {i}: no neighborhood excitation certificate with H <= {H_MAX}, "
                f"omega = {omega} (margin {margins[H_MAX][i - 1]:.3g} at H = {H_MAX})"
            )
    return problems + schedule_violations(s.schedule, K) + asymptotic_violations(s.schedule)


@pytest.fixture(scope="module", params=list(HORIZONS))
def case(request):
    s = request.getfixturevalue(request.param)
    K = HORIZONS[request.param]
    t = reference_tables(s, K)
    coef = reference_coefficients(s, t)
    return s, K, t, coef, reference_moments(s, coef)


def test_step_tables(case):
    s, K, ref, _, _ = case
    t = step_tables(s, K)
    assert t.horizon == K
    for name in ("phi", "y_det", "delta", "adj", "alpha", "members", "gated_sum", "effective", "counters"):
        assert_same(getattr(t, name), ref[name])


def test_step_coefficients(case):
    s, K, _, ref, _ = case
    coef = step_coefficients(s, K)
    for name in ("alpha", "beta", "epsilon", "gated_sum", "noise_var"):
        assert_same(getattr(coef, name), ref[name])


def test_moments(case):
    s, K, _, _, ref = case
    mom = moments(s, K)
    for name in ("mean", "cov_exact", "cov_bound"):
        assert_same(getattr(mom, name), ref[name])


def test_theorem_check(case):
    s, K, t, coef, mom = case
    report = theorem_check(s, K)
    assert_same(report.mean_final, np.abs(mom["mean"][:, K]))
    assert_same(report.cov_final, mom["cov_exact"][:, K])
    r_max = max(s.variances)
    cap_const = float(np.max(coef["noise_var"])) / r_max * r_max
    ratio_max, ratio_ok = 0.0, True
    for i in range(s.n):
        for k in range(K):
            b = coef["beta"][i, k]
            if b == 0.0:
                continue
            ratio = float(np.max(coef["epsilon"][i, k])) / b
            ratio_max = max(ratio_max, ratio)
            if ratio > cap_const * coef["alpha"][k] / s.mu[i] * (1.0 + 1e-12):
                ratio_ok = False
    assert np.float64(report.ratio_max).tobytes() == np.float64(ratio_max).tobytes()
    assert report.ratio_cap_ok is ratio_ok
    assert list(report.violations) == reference_problems(s, t["delta"], K)


def test_excitation_margins(case):
    s, K, t, _, _ = case
    sums = neighborhood_sum(neighborhood_index(s.graph, K), t["delta"] ** 2)
    want = {H: reference_margins(s, t["delta"], H, K, closed(s)) for H in range(1, H_MAX + 1)}
    for H, margins in want.items():
        got = local_pe_check(sums, s.d, H, 1.0).margin
        assert np.array(got).tobytes() == np.array(margins).tobytes()
    report = check_scenario(s, h_max=H_MAX, horizon=K)
    assert (report.pe_h, report.pe_margin) == find_certificate(sums, s.d, 1.0, H_MAX)
    for i, h in report.pe_h.items():
        assert report.pe_margin[i] == want[h or H_MAX][i - 1]
    # individual excitation: the smallest H whose windows over the sensor
    # alone reach omega = 1, by brute force
    alone = {H: reference_margins(s, t["delta"], H, K, lambda i, k: (i,)) for H in range(1, H_MAX + 1)}
    single_h = {
        i: next((H for H, m in alone.items() if m[i - 1] >= 1.0 - MARGIN_REL_TOL), None)
        for i in range(1, s.n + 1)
    }
    assert report.single_pe_h == single_h
    assert single_sensor_pe(t["delta"], s.d, 1.0, H_MAX)[0] == single_h
