import math
import sys

import numpy as np
import pytest

from dremnet.drem import DremMessage
from dremnet.estimator import (
    HarmonicSchedule,
    NodeState,
    TableSchedule,
    asymptotic_violations,
    node_step,
    schedule_violations,
    step_size,
    update_estimate,
    updates,
)


def msg(sensor, delta, ybar):
    return DremMessage(ybar=np.asarray(ybar, dtype=float), delta_bar=delta, sensor=sensor)


class TestStepSchedules:
    def test_harmonic_values(self):
        s = HarmonicSchedule(c=0.7)
        assert step_size(s, 10) == 0.7 / 10
        assert step_size(s, 0) == 0.7  # k=0 clamp uses max(k, 1)
        assert step_size(s, 7) == 0.7 / 7

    def test_harmonic_clamps_to_one(self):
        s = HarmonicSchedule(c=2.0)
        assert step_size(s, 1) == 1.0
        assert step_size(s, 4) == 0.5

    @pytest.mark.parametrize("c", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    def test_harmonic_rejects_bad_coefficient(self, c):
        # a NaN c once passed c <= 0 and gave alpha(k) = 1 at every step
        with pytest.raises(ValueError, match="c must be finite and positive"):
            HarmonicSchedule(c=c)

    @pytest.mark.parametrize("c", ["0.7", True])
    def test_harmonic_coefficient_must_be_a_number(self, c):
        # before, "0.7" loaded as 0.7 and True as 1.0
        with pytest.raises(ValueError, match=f"^harmonic coefficient c must be a number, got {c!r}$"):
            HarmonicSchedule(c=c)

    def test_table_values_must_be_numbers(self):
        with pytest.raises(ValueError, match="^step size must be a number, got '0.5'$"):
            TableSchedule(values=("0.5", True))
        with pytest.raises(ValueError, match="^step size must be a number, got True$"):
            TableSchedule(values=(0.5, True))
        assert TableSchedule(values=(np.float64(0.5), 1)).values == (0.5, 1.0)

    def test_table_holds_last(self):
        s = TableSchedule(values=(0.5, 0.25))
        assert step_size(s, 0) == 0.5
        assert step_size(s, 1) == 0.25
        assert step_size(s, 100) == 0.25

    def test_table_validation(self):
        with pytest.raises(ValueError):
            TableSchedule(values=())
        with pytest.raises(ValueError):
            TableSchedule(values=(0.5, 0.0))
        with pytest.raises(ValueError):
            TableSchedule(values=(1.5,))

    def test_negative_step_rejected(self):
        with pytest.raises(ValueError):
            step_size(HarmonicSchedule(c=0.7), -1)

    @pytest.mark.parametrize(
        "schedule, k",
        [(HarmonicSchedule(c=0.7), 1.5), (HarmonicSchedule(c=0.7), True), (TableSchedule(values=(1.0, 0.5)), 0.5)],
    )
    def test_step_must_be_an_integer(self, schedule, k):
        # a float or bool step index reads no alpha, on either schedule kind
        with pytest.raises(ValueError, match=f"^step index must be an integer, got {k!r}$"):
            step_size(schedule, k)

    def test_numpy_step_accepted(self):
        assert step_size(HarmonicSchedule(c=0.7), np.int64(7)) == step_size(HarmonicSchedule(c=0.7), 7)

    def test_violations_clean_harmonic(self):
        assert schedule_violations(HarmonicSchedule(c=0.7), 200) == []

    def test_violations_flag_increase(self):
        s = TableSchedule(values=(0.1, 0.2))
        problems = schedule_violations(s, 5)
        assert len(problems) == 1
        assert "increases" in problems[0]

    @staticmethod
    def per_step_violations(s, horizon):
        # the audit as a loop over every step's alpha
        problems, prev = [], None
        for k in range(horizon):
            a = step_size(s, k)
            if prev is not None and a > prev:
                problems.append(f"alpha({k}) = {a} increases from alpha({k - 1}) = {prev}")
            prev = a
        return problems

    @pytest.mark.parametrize("horizon", [0, 1, 2, 3, 5, 9, 40])
    @pytest.mark.parametrize(
        "values",
        [
            (0.1, 0.2),
            (0.5, 0.25, 0.5, 0.125),
            (1.0, 0.5, 0.5, 0.25, 0.125, 0.0625, 0.125, 0.03125),  # an increase at step 6
            (0.3,),
            tuple(np.random.default_rng(4).uniform(0.01, 1.0, size=20)),
        ],
    )
    def test_violations_match_per_step_loop(self, values, horizon):
        # tables shorter and longer than the horizon; an increase past the
        # horizon is not reported
        s = TableSchedule(values=values)
        assert schedule_violations(s, horizon) == self.per_step_violations(s, horizon)

    @pytest.mark.parametrize("c", [0.7, 1.0, 3.0, 50.0])
    def test_violations_harmonic_match_per_step_loop(self, c):
        s = HarmonicSchedule(c=c)
        assert schedule_violations(s, 300) == self.per_step_violations(s, 300) == []

    @pytest.mark.parametrize("c", [5e-324, sys.float_info.min / 2])
    def test_harmonic_refuses_subnormal_coefficient(self, c):
        # c / k of a subnormal c rounds to 0.0 from k = 2 on, where run_single
        # raised and run_monte_carlo froze its estimates
        with pytest.raises(ValueError, match=f"^harmonic coefficient c must be at least {sys.float_info.min}, got {c}$"):
            HarmonicSchedule(c=c)
        s = HarmonicSchedule(c=sys.float_info.min)
        assert step_size(s, 2**53 - 1) > 0.0

    def test_asymptotic_harmonic_clean(self):
        assert asymptotic_violations(HarmonicSchedule(c=0.7)) == []

    def test_asymptotic_flags_flat_table(self):
        problems = asymptotic_violations(TableSchedule(values=(1.0,)))
        assert len(problems) == 1
        assert "decay" in problems[0]

    def test_asymptotic_accepts_decaying_table(self):
        vals = tuple(0.7 / k for k in range(1, 1001))
        assert asymptotic_violations(TableSchedule(values=vals)) == []


class TestGate:
    # node_step's gate: closed, the estimate holds as under all-zero deltas;
    # open, the update reads every delta_bar of the inbox in sensor order
    def test_immature_counter_zeroes_deltas(self):
        state = NodeState(theta_hat=np.array([0.25, -1.5]), counter=1, mu=0.1)
        inbox = [msg(1, -0.5, [0.0, 0.0]), msg(2, 1.0, [1.0, 2.0])]
        assert not updates(1, 1.25, d=2)
        zeroed = [msg(m.sensor, 0.0, m.ybar) for m in inbox]
        nxt, eff = node_step(state, 3, inbox[0], inbox[1:], HarmonicSchedule(c=0.7), d=2)
        assert not eff and nxt.counter == 2
        assert nxt.theta_hat.tobytes() == update_estimate(state, zeroed, 0.7 / 3).tobytes()
        assert nxt.theta_hat.tobytes() == state.theta_hat.tobytes()

    def test_mature_counter_passes_through(self):
        # received in any order, the messages are summed in ascending sensor order
        state = NodeState(theta_hat=np.array([0.3]), counter=2, mu=0.1)
        inbox = [msg(3, -1.0, [0.5]), msg(1, 1.0, [2.0]), msg(2, 0.0, [9.0])]
        assert updates(2, 2.0, d=2)
        nxt, eff = node_step(state, 4, inbox[0], inbox[1:], TableSchedule(values=(0.5,)), d=2)
        want = update_estimate(state, sorted(inbox, key=lambda m: m.sensor), 0.5)
        assert eff and nxt.counter == 0
        assert nxt.theta_hat.tobytes() == want.tobytes()
        # 0.5 * (1 * (2 - 0.3) + 0 + (-1) * (0.5 + 0.3)) / (0.1 + 2)
        assert nxt.theta_hat[0] == pytest.approx(0.3 + 0.5 * 0.9 / 2.1, rel=1e-12)

    def test_self_only_inbox(self):
        state = NodeState(theta_hat=np.zeros(1), counter=2, mu=0.1)
        own = msg(4, 2.0, [1.0])
        nxt, eff = node_step(state, 2, own, [], TableSchedule(values=(0.5,)), d=2)
        assert eff and nxt.theta_hat.tobytes() == update_estimate(state, [own], 0.5).tobytes()
        # 0.5 * 2 * 1 / (0.1 + 4)
        assert nxt.theta_hat[0] == pytest.approx(1.0 / 4.1, rel=1e-12)


class TestUpdate:
    def test_hand_value(self):
        # one member: delta=1, ybar=2.5, theta=0, alpha=0.5, mu=0.1
        # step = 0.5 * (1 * 2.5) / (0.1 + 1) = 1.25/1.1
        state = NodeState(theta_hat=np.zeros(1), counter=2, mu=0.1)
        out = update_estimate(state, (msg(1, 1.0, [2.5]),), alpha=0.5)
        assert out[0] == 1.1363636363636362

    def test_all_zero_deltas_leave_estimate(self):
        state = NodeState(theta_hat=np.array([1.0, -2.0]), counter=0, mu=0.1)
        out = update_estimate(state, (msg(1, 0.0, [5.0, 5.0]), msg(2, -0.0, [3.0, 3.0])), alpha=1.0)
        assert np.array_equal(out, state.theta_hat)
        assert out is not state.theta_hat  # fresh array

    def test_exact_fixed_point(self):
        # ybar = delta * theta_hat leaves the estimate exactly unchanged
        theta = np.array([2.5, -1.0])
        state = NodeState(theta_hat=theta, counter=2, mu=0.1)
        out = update_estimate(state, (msg(1, 2.0, 2.0 * theta), msg(2, -0.5, -0.5 * theta)), alpha=0.3)
        assert np.array_equal(out, theta)

    def test_channels_independent(self):
        # permuting channels permutes the result; the update is channelwise
        state1 = NodeState(theta_hat=np.array([0.2, -0.4]), counter=2, mu=0.3)
        state2 = NodeState(theta_hat=state1.theta_hat[::-1].copy(), counter=2, mu=0.3)
        out1 = update_estimate(state1, (msg(1, 0.7, [1.0, 2.0]),), alpha=0.25)
        out2 = update_estimate(state2, (msg(1, 0.7, [2.0, 1.0]),), alpha=0.25)
        assert np.array_equal(out1, out2[::-1])

    def test_alpha_validated(self):
        state = NodeState(theta_hat=np.zeros(1), counter=0, mu=0.1)
        with pytest.raises(ValueError):
            update_estimate(state, (), alpha=0.0)
        with pytest.raises(ValueError):
            update_estimate(state, (), alpha=1.5)


class TestCounter:
    def test_reset_on_effective_update(self):
        assert updates(2, 1.0, d=2)
        nxt, eff = node_step(
            NodeState(theta_hat=np.zeros(1), counter=2, mu=0.1), 5, msg(1, 1.0, [2.5]), [],
            HarmonicSchedule(c=0.7), d=2,
        )
        assert eff and nxt.counter == 0

    def test_tick_when_sum_zero(self):
        assert not updates(2, 0.0, d=2)
        assert not updates(3, -0.0, d=2)
        # a mature counter with every delta_bar zero ticks and leaves the estimate
        state = NodeState(theta_hat=np.array([0.3]), counter=2, mu=0.1)
        nxt, eff = node_step(state, 9, msg(1, 0.0, [5.0]), [msg(2, -0.0, [1.0])], HarmonicSchedule(c=0.7), d=2)
        assert not eff and nxt.counter == 3
        assert nxt.theta_hat.tobytes() == state.theta_hat.tobytes()

    def test_tick_when_immature(self):
        assert not updates(0, 0.0, d=2)
        assert not updates(1, 1.0, d=2)

    def test_tiny_nonzero_sum_resets(self):
        # only an exact zero blocks: a tiny determinant is real excitation
        assert updates(3, 1e-300, d=2)


class TestNodeStep:
    def test_warm_up_is_inert(self):
        state = NodeState(theta_hat=np.zeros(2), counter=0, mu=0.1)
        own = msg(1, 0.0, [0.0, 0.0])
        nxt, effective = node_step(state, 0, own, [], HarmonicSchedule(c=0.7), d=2)
        assert not effective
        assert np.array_equal(nxt.theta_hat, state.theta_hat)
        assert nxt.counter == 1

    def test_update_spacing(self):
        # always-excited synthetic stream: effective steps come every d+1
        d = 2
        state = NodeState(theta_hat=np.zeros(1), counter=0, mu=0.1)
        schedule = HarmonicSchedule(c=0.7)
        effective_steps = []
        for k in range(20):
            own = msg(1, 1.0, [2.5])
            state, eff = node_step(state, k, own, [], schedule, d)
            if eff:
                effective_steps.append(k)
        assert effective_steps == [2, 5, 8, 11, 14, 17]
        gaps = np.diff(effective_steps)
        assert np.all(gaps == d + 1)

    def test_neighbors_join_update(self):
        state = NodeState(theta_hat=np.zeros(1), counter=2, mu=0.1)
        own = msg(1, 1.0, [2.5])
        incoming = [msg(2, 1.0, [2.5])]
        nxt, eff = node_step(state, 4, own, incoming, TableSchedule(values=(0.5,)), d=2)
        assert eff
        # two identical members: 0.5 * (2 * 2.5) / (0.1 + 2)
        assert nxt.theta_hat[0] == pytest.approx(2.5 / 2.1, rel=1e-12)
        assert nxt.counter == 0

    def test_inbox_sorted_by_sensor(self):
        # the update sums over the closed neighbourhood in ascending sensor
        # order whatever order the messages arrive in; with these values the
        # order shows in the last bit
        state = NodeState(theta_hat=np.array([-1.2459109472530652]), counter=2, mu=0.1)
        m1 = msg(1, -0.7322673547034516, [-0.5442589828573099])
        m2 = msg(2, -0.31630015636915454, [0.4116305363741328])
        m3 = msg(3, 1.0425133694426776, [-0.12853466294403426])
        want = update_estimate(state, [m1, m2, m3], 0.5).tobytes()
        assert update_estimate(state, [m3, m2, m1], 0.5).tobytes() != want
        for received in ([m2, m1], [m1, m2]):
            nxt, eff = node_step(state, 0, m3, received, TableSchedule(values=(0.5,)), d=2)
            assert eff and nxt.theta_hat.tobytes() == want


    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize(
        "counter, deltas", [(1, (1.0, -2.0)), (3, (0.0, -0.0)), (0, (math.nan, 1.0))], ids=["immature", "zero", "nan"]
    )
    def test_closed_gate_holds_the_estimate(self, counter, deltas, bad):
        # with the gate closed node_step returns the bytes that the update of
        # the same messages with zero delta_bar returns, in a fresh array,
        # whatever the ybar values
        state = NodeState(theta_hat=np.array([0.3, -0.0, 5e-324]), counter=counter, mu=0.1)
        own, other = msg(2, deltas[0], [bad, 1.0, -bad]), msg(1, deltas[1], [0.5, bad, 2.0])
        schedule = HarmonicSchedule(c=0.7)
        zeroed = [msg(m.sensor, 0.0, m.ybar) for m in (other, own)]
        want = update_estimate(state, zeroed, step_size(schedule, 7))
        nxt, eff = node_step(state, 7, own, [other], schedule, d=2)
        assert not eff and nxt.counter == counter + 1 and nxt.mu == state.mu
        assert nxt.theta_hat.tobytes() == want.tobytes() == state.theta_hat.tobytes()
        assert nxt.theta_hat is not state.theta_hat

    @pytest.mark.parametrize("counter, effective", [(0, False), (2, True)])
    def test_negative_step_refused_with_the_gate_open_or_closed(self, counter, effective):
        state = NodeState(theta_hat=np.zeros(1), counter=counter, mu=0.1)
        args = (msg(1, 1.0, [2.5]), [], HarmonicSchedule(c=0.7), 2)
        assert node_step(state, 0, *args)[1] == effective
        with pytest.raises(ValueError, match="step index must be nonnegative"):
            node_step(state, -1, *args)


class TestState:
    @pytest.mark.parametrize("mu", [math.nan, -math.nan, math.inf, -math.inf, np.float32("nan"), 0.0, -1.0])
    def test_mu_must_be_finite_and_positive(self, mu):
        with pytest.raises(ValueError, match="mu must be finite and positive"):
            NodeState(theta_hat=np.zeros(2), counter=0, mu=mu)

    @pytest.mark.parametrize("mu", ["0.1", True, None, 1j])
    def test_mu_must_be_a_number(self, mu):
        with pytest.raises(ValueError, match="mu must be a number"):
            NodeState(theta_hat=np.zeros(2), counter=0, mu=mu)

    @pytest.mark.parametrize("counter", [1.5, 2.0, True, "2", np.float64(1.0)])
    def test_counter_must_be_an_integer(self, counter):
        with pytest.raises(ValueError, match="counter must be an integer"):
            NodeState(theta_hat=np.zeros(2), counter=counter, mu=0.1)

    @pytest.mark.parametrize(
        "theta_hat, message",
        [
            (["1.5", True], "theta_hat must be a number, got '1.5'"),
            ([0.5, True], "theta_hat must be a number, got True"),
        ],
    )
    def test_theta_hat_entries_must_be_numbers(self, theta_hat, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            NodeState(theta_hat=theta_hat, counter=0, mu=0.1)

    def test_numpy_numbers_accepted(self):
        state = NodeState(theta_hat=np.zeros(2), counter=np.int64(3), mu=np.float32(0.5))
        assert state.counter == 3 and state.mu == 0.5
        # other number types become a float64 array of the same values and shape
        for theta_hat in ([[1, -0.0]], np.array([[1, 2]]), np.array([[0.5, -0.0]], dtype=np.float32)):
            th = NodeState(theta_hat=theta_hat, counter=0, mu=0.1).theta_hat
            assert th.dtype == np.float64 and th.tobytes() == np.array(theta_hat, dtype=float).tobytes()

    def test_validation(self):
        with pytest.raises(ValueError):
            NodeState(theta_hat=np.zeros(2), counter=0, mu=0.0)
        with pytest.raises(ValueError):
            NodeState(theta_hat=np.zeros(2), counter=-1, mu=0.1)
        with pytest.raises(ValueError):
            NodeState(theta_hat=np.array([np.nan]), counter=0, mu=0.1)
