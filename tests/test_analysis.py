import dataclasses
import io
import math

import numpy as np
import pytest

from dremnet.analysis import (
    MomentTrajectory,
    StepCoefficients,
    beta,
    covariance_recursion,
    export_oracle_csv,
    mean_recursion,
    moments,
    step_coefficients,
    theorem_check,
)
from dremnet.drem import adjugate
from dremnet.estimator import HarmonicSchedule, TableSchedule
from dremnet.harness import run_monte_carlo
from dremnet.model import Constant
from dremnet.topology import StaticGraph

from test_harness import tiny_scenario


@pytest.fixture(scope="module")
def one_update():
    """d=1 scenario whose first (and only tabulated) update is at k=1."""
    return tiny_scenario(
        theta=np.array([2.5]),
        variances=(1.0,),
        schedule=TableSchedule(values=(0.5,)),
        horizon=2,
    )


class TestBeta:
    def test_worked_value(self):
        b = beta(0.5, 0.1, 1.0)
        assert b == 0.5 * 1.0 / (0.1 + 1.0)
        assert b == pytest.approx(0.45455, abs=5e-6)

    def test_no_update_is_zero(self):
        assert beta(0.5, 0.1, 0.0) == 0.0

    def test_saturates_below_alpha(self):
        b = beta(0.5, 0.1, 1e6)
        assert 0.0 < b <= 0.5
        assert b == pytest.approx(0.5, rel=1e-6)

    def test_validation(self):
        with pytest.raises(ValueError):
            beta(0.0, 0.1, 1.0)
        with pytest.raises(ValueError):
            beta(0.5, 0.0, 1.0)
        with pytest.raises(ValueError):
            beta(0.5, 0.1, -1.0)

    @pytest.mark.parametrize("alpha, message", [("0.5", "'0.5'"), (True, "True")])
    def test_alpha_must_be_a_number(self, alpha, message):
        # "0.5" raised a bare TypeError and True gave 0.5
        with pytest.raises(ValueError, match=f"^alpha must be a number, got {message}$"):
            beta(alpha, 1.0, 1.0)

    def test_nan_refused(self):
        with pytest.raises(ValueError, match="^mu must be finite and positive, got nan$"):
            beta(0.5, math.nan, 1.0)
        with pytest.raises(ValueError, match="^gated sum must be finite, got nan$"):
            beta(0.5, 0.1, math.nan)


def mixed_noise_variance(phi: np.ndarray, variance: float, channel: int) -> float:
    """Variance of channel l (1-based) of adj(Phi) applied to i.i.d. noise of variance R.

    R times the squared norm of row l of adj(Phi).
    """
    if variance < 0:
        raise ValueError(f"variance must be nonnegative, got {variance}")
    phi = np.asarray(phi, dtype=float)
    d = phi.shape[0]
    if not 1 <= channel <= d:
        raise ValueError(f"channel {channel} out of range 1..{d}")
    row = adjugate(phi)[channel - 1]
    return variance * float(np.dot(row, row))


class TestMixedNoiseVariance:
    def test_worked_value(self):
        phi = np.array([[2.0, 3.0], [1.0, 2.0]])
        assert mixed_noise_variance(phi, 1.0, 1) == 13.0
        assert mixed_noise_variance(phi, 1.0, 2) == 5.0

    def test_zero_variance(self):
        phi = np.array([[2.0, 3.0], [1.0, 2.0]])
        assert mixed_noise_variance(phi, 0.0, 1) == 0.0

    def test_identity_passes_variance_through(self):
        for l in (1, 2, 3):
            assert mixed_noise_variance(np.eye(3), 0.7, l) == 0.7

    def test_channel_range(self):
        phi = np.eye(2)
        with pytest.raises(ValueError):
            mixed_noise_variance(phi, 1.0, 0)
        with pytest.raises(ValueError):
            mixed_noise_variance(phi, 1.0, 3)
        with pytest.raises(ValueError):
            mixed_noise_variance(phi, -1.0, 1)

    def test_empirical_agreement(self):
        # mixing i.i.d. noise through an adjugate row realizes the variance
        rng = np.random.default_rng(20)
        phi = np.array([[2.0, 3.0], [1.0, 2.0]])
        r = 0.7
        v = rng.normal(scale=np.sqrt(r), size=(200_000, 2))
        mixed = 2.0 * v[:, 0] - 3.0 * v[:, 1]  # adjugate row 1
        assert np.var(mixed) == pytest.approx(mixed_noise_variance(phi, r, 1), rel=0.05)


class TestStepCoefficients:
    def test_invariants(self, sec5):
        coef = step_coefficients(sec5, horizon=200)
        assert np.all(coef.beta >= 0.0)
        assert np.all(coef.beta <= coef.alpha[None, :])
        assert np.all(coef.epsilon >= 0.0)
        # non-update steps contribute nothing
        idle = coef.gated_sum == 0.0
        assert np.all(coef.beta[idle] == 0.0)
        assert np.all(coef.epsilon[idle] == 0.0)

    def test_first_update_spot_check(self, sec5):
        coef = step_coefficients(sec5, horizon=10)
        # sensor 1's stacked window at k=2 has adjugate rows [2,-3] and [-1,2]
        assert coef.noise_var[0, 2, 0] == 13.0
        assert coef.noise_var[0, 2, 1] == 5.0
        # neighborhood {1, 4} with delta_4 = 0: S = 1, alpha(2) = 0.35
        assert coef.gated_sum[0, 2] == 1.0
        assert coef.beta[0, 2] == 0.35 * 1.0 / (0.1 + 1.0)
        expected_gain = (0.35 / 1.1) ** 2
        np.testing.assert_allclose(
            coef.epsilon[0, 2], [expected_gain * 13.0, expected_gain * 5.0], rtol=1e-12
        )

    def test_validation(self):
        with pytest.raises(ValueError, match="beta"):
            StepCoefficients(
                alpha=np.array([0.5]),
                beta=np.array([[0.6]]),
                epsilon=np.zeros((1, 1, 1)),
                gated_sum=np.ones((1, 1)),
                noise_var=np.zeros((1, 1, 1)),
            )
        with pytest.raises(ValueError, match="epsilon"):
            StepCoefficients(
                alpha=np.array([0.5]),
                beta=np.array([[0.1]]),
                epsilon=-np.ones((1, 1, 1)),
                gated_sum=np.ones((1, 1)),
                noise_var=np.zeros((1, 1, 1)),
            )


class TestMeanRecursion:
    def test_one_step_worked_value(self, one_update):
        mean = mean_recursion(one_update)
        assert mean[0, 0, 0] == -2.5
        assert mean[0, 1, 0] == -2.5  # k=0 is warm-up, counter immature
        b = 0.5 * 1.0 / (0.1 + 1.0)
        assert mean[0, 2, 0] == (1.0 - b) * -2.5
        assert mean[0, 2, 0] == pytest.approx(-1.36364, abs=5e-6)

    def test_no_updates_hold_mean(self):
        s = tiny_scenario(
            theta=np.array([1.0, 2.0]),
            generators=(Constant(vector=(1.0, 1.0)),),
            theta_hat0=np.zeros((1, 2)),
            horizon=30,
        )
        mean = mean_recursion(s)
        assert np.all(mean == mean[:, :1])

    def test_long_run_decay(self, sec5):
        # the (1 - beta) product vanishes: each decade shrinks every cell
        mean = np.abs(mean_recursion(sec5, horizon=10_000))
        m2, m3, m4 = mean[:, 100], mean[:, 1000], mean[:, 10_000]
        assert np.all(m4 < 0.9 * m3)
        assert np.all(m3 < m2)


class TestCovarianceRecursion:
    def test_one_step_worked_value(self, one_update):
        exact, bound = covariance_recursion(one_update)
        assert np.all(exact[:, :2] == 0.0)
        expected = (0.5 / 1.1) ** 2  # gain * S * cov[vbar], both 1
        assert exact[0, 2, 0] == expected
        assert bound[0, 2, 0] == expected
        assert exact[0, 2, 0] == pytest.approx(0.20661, abs=5e-6)

    def test_noise_free_is_identically_zero(self, sec5_noise_free):
        exact, bound = covariance_recursion(sec5_noise_free, horizon=300)
        assert np.all(exact == 0.0)
        assert np.all(bound == 0.0)

    def test_bound_dominates(self, sec5):
        exact, bound = covariance_recursion(sec5, horizon=1000)
        assert np.all(exact <= bound + 1e-18)
        # strict once two updates have compounded (beta in (0, 1))
        assert np.all(exact[:, -1] < bound[:, -1])

    def test_ten_fold_decay_by_k1000(self, sec5):
        # claimed: cov at k=1000 sits at least 10x below cov at k=10; the
        # harmonic step size with 3-step gating decays too slowly for that,
        # so this documents the measured shortfall (ratios 0.17..0.51)
        exact, _ = covariance_recursion(sec5, horizon=1000)
        ratio = exact[:, 1000] / exact[:, 10]
        assert np.all(ratio <= 0.1), f"max cov(1000)/cov(10) = {ratio.max():.3f}"


def all_steps_covariance(s, horizon=None):
    """Reference for covariance_recursion: both recursions through every step, held ones too."""
    coef = step_coefficients(s, horizon)
    n, K = coef.beta.shape
    exact = np.zeros((n, K + 1, s.d))
    bound = np.zeros((n, K + 1, s.d))
    for i in range(n):
        for l in range(s.d):
            e = b = 0.0
            for k in range(K):
                dk, ek = 1.0 - float(coef.beta[i, k]), float(coef.epsilon[i, k, l])
                e = dk * dk * e + ek
                b = dk * b + ek
                exact[i, k + 1, l], bound[i, k + 1, l] = e, b
    return exact, bound


class TestUpdateIndexedCovariance:
    """covariance_recursion visits update steps only; it must match the all-steps loop bit for bit."""

    @staticmethod
    def assert_bits_equal(s, horizon):
        got, want = covariance_recursion(s, horizon), all_steps_covariance(s, horizon)
        for g, w in zip(got, want):
            assert g.shape == w.shape == (s.n, horizon + 1, s.d)
            assert g.tobytes() == w.tobytes()

    def test_sec5_long_horizon(self, sec5):
        self.assert_bits_equal(sec5, 1000)

    @pytest.mark.parametrize("name", ["periodic_d3", "table_d5"])
    def test_generated_scenarios(self, name, request):
        s = request.getfixturevalue(name)
        self.assert_bits_equal(s, s.horizon)

    @pytest.mark.parametrize("K", [0, 1])
    def test_shortest_horizons(self, sec5, K):
        self.assert_bits_equal(sec5, K)

    def test_sensor_that_never_updates_holds_plus_zero(self, sec5):
        # alone on the edgeless graph, sensor 4's constant regressor stacks
        # into singular windows, so it never updates
        s = dataclasses.replace(sec5, graph=StaticGraph(n=sec5.n, edges=()))
        self.assert_bits_equal(s, 200)
        exact, bound = covariance_recursion(s, 200)
        for a in (exact, bound):
            assert np.all(a[3] == 0.0) and not np.any(np.signbit(a[3]))
            assert np.any(a[:3] > 0.0)


class TestMoments:
    def test_bundle_matches_parts(self, sec5):
        m = moments(sec5, horizon=50)
        np.testing.assert_array_equal(m.mean, mean_recursion(sec5, horizon=50))
        exact, bound = covariance_recursion(sec5, horizon=50)
        np.testing.assert_array_equal(m.cov_exact, exact)
        np.testing.assert_array_equal(m.cov_bound, bound)

    def test_validation(self):
        with pytest.raises(ValueError):
            MomentTrajectory(
                mean=np.zeros((1, 2, 1)),
                cov_exact=-np.ones((1, 2, 1)),
                cov_bound=np.zeros((1, 2, 1)),
            )


class TestTheoremCheck:
    def test_builtin_long_horizon(self, sec5):
        # claimed: both moments fall below 1e-2 by k=10^4; the harmonic
        # schedule's effective contraction sums like (0.7/3) ln k, which is
        # polynomial decay, far short of the threshold at that horizon
        report = theorem_check(sec5, horizon=10_000)
        assert report.violations == ()
        assert report.ratio_cap_ok
        assert report.ok, (
            f"mean_final max {report.mean_final.max():.4f}, "
            f"cov_final max {report.cov_final.max():.4f} vs thresholds 1e-2"
        )

    def test_unexcited_scenario_flagged(self):
        s = tiny_scenario(
            theta=np.array([1.0, 2.0]),
            generators=(Constant(vector=(1.0, 1.0)),),
            theta_hat0=np.zeros((1, 2)),
            horizon=60,
        )
        report = theorem_check(s)
        assert not report.ok
        assert any("excitation" in v for v in report.violations)

    @pytest.mark.parametrize("K", [1, 3, 7])
    def test_horizon_shorter_than_the_window_search(self, sec5, K):
        report = theorem_check(sec5, horizon=K)
        assert report.horizon == K
        if K < 2:
            # no window of one step certifies a sensor at k = 0
            assert len(report.violations) == sec5.n
            assert all(f"H <= {K}, omega = 1.0" in v for v in report.violations)
        else:
            assert not any("excitation" in v for v in report.violations)

    def test_constant_step_size_flagged(self):
        s = tiny_scenario(schedule=TableSchedule(values=(1.0,)), horizon=60)
        report = theorem_check(s)
        assert not report.ok
        assert any("decay" in v for v in report.violations)

    def test_ratio_cap(self, sec5):
        # eps/beta <= C alpha / mu with C the realized adjugate-row bound
        report = theorem_check(sec5, horizon=500)
        assert report.ratio_cap_ok
        assert report.ratio_max > 0.0

    def test_ok_when_both_moments_vanish(self):
        # one noise-free, excited sensor under a harmonic gain with c = 1:
        # both terminal moments fall below 1e-2 by k = 1000
        report = theorem_check(tiny_scenario(schedule=HarmonicSchedule(c=1.0), horizon=1000))
        assert report.violations == ()
        assert report.mean_ok and report.cov_ok
        assert report.ok


class TestOracleExport:
    def test_row_count_and_round_trip(self, sec5, tmp_path):
        m = moments(sec5, horizon=3)
        p = tmp_path / "oracle.csv"
        export_oracle_csv(m, p)
        lines = p.read_text().splitlines()
        assert lines[0] == "k,i,l,mean,cov_exact,cov_bound"
        assert len(lines) == 1 + 4 * 4 * 2  # header + (K+1) * n * d
        k, i, l, mean, ce, cb = lines[1].split(",")
        assert (k, i, l) == ("0", "1", "1")
        assert float(mean) == m.mean[0, 0, 0]
        # spot-check an interior row: k=2, sensor 1, channel 1
        row = lines[1 + 2 * 8].split(",")
        assert row[:3] == ["2", "1", "1"]
        assert float(row[3]) == m.mean[0, 2, 0]
        assert float(row[4]) == m.cov_exact[0, 2, 0]

    def test_stream_write(self, sec5):
        m = moments(sec5, horizon=1)
        buf = io.StringIO()
        export_oracle_csv(m, buf)
        assert buf.getvalue().startswith("k,i,l,")

    def test_write_failure_names_path(self, sec5):
        m = moments(sec5, horizon=1)
        with pytest.raises(OSError, match="/nonexistent/oracle.csv"):
            export_oracle_csv(m, "/nonexistent/oracle.csv")


@pytest.fixture(scope="module")
def mc(sec5):
    return run_monte_carlo(sec5, runs=300, base_seed=7, horizon=100)


class TestOracleAgainstSimulation:
    """Light-touch cross-validation; the acceptance suite runs the M=10^4 version."""

    def test_mean_within_monte_carlo_error(self, sec5, mc):
        mean = mean_recursion(sec5, horizon=100)
        for k in (10, 100):
            se = np.sqrt(mc.var_tilde[:, k] / mc.runs)
            gap = np.abs(mc.mean_tilde[:, k] - mean[:, k])
            assert np.all(gap <= 6.0 * se)

    def test_variance_within_monte_carlo_error(self, sec5, mc):
        exact, _ = covariance_recursion(sec5, horizon=100)
        rel_se = np.sqrt(2.0 / (mc.runs - 1))
        for k in (10, 100):
            gap = np.abs(mc.var_tilde[:, k] - exact[:, k])
            assert np.all(gap <= 6.0 * rel_se * exact[:, k])

    def test_variance_survives_large_offset(self, sec5):
        # tiny noise around a large estimate: the per-run spread sits ~9
        # orders below theta_hat, where sum(x^2) - M*mean^2 cancels to noise
        s = dataclasses.replace(sec5, variances=(1e-10,) * 4, theta_hat0=np.full((4, 2), 1e4))
        runs = 256
        agg = run_monte_carlo(s, runs=runs, base_seed=0, horizon=60)
        exact, _ = covariance_recursion(s, horizon=60)
        rel_se = np.sqrt(2.0 / (runs - 1))
        assert np.all(exact[:, 60] > 0.0)
        gap = np.abs(agg.var_tilde[:, 60] - exact[:, 60])
        assert np.all(gap <= 6.0 * rel_se * exact[:, 60])
