import itertools

import numpy as np
import pytest

from dremnet.drem import (
    _cofactor_det,
    adjugate,
    determinant,
    drem_transform,
    extend,
    mix,
    stack_regressors,
)


def perm_sign(p):
    inversions = sum(
        1 for a in range(len(p)) for b in range(a + 1, len(p)) if p[a] > p[b]
    )
    return -1.0 if inversions % 2 else 1.0


def leibniz_det(m):
    """Permutation-sum determinant; independent of the production code path."""
    d = m.shape[0]
    total = 0.0
    for p in itertools.permutations(range(d)):
        prod = perm_sign(p)
        for r in range(d):
            prod *= m[r, p[r]]
        total += prod
    return total


def oracle_adjugate(m):
    d = m.shape[0]
    out = np.empty((d, d))
    for r in range(d):
        for c in range(d):
            minor = np.delete(np.delete(m, r, axis=0), c, axis=1)
            out[c, r] = (-1.0) ** (r + c) * leibniz_det(minor)
    return out


class TestDeterminant:
    def test_hand_values(self):
        assert determinant(np.array([[3.0]])) == 3.0
        assert determinant(np.array([[1.0, 2.0], [2.0, 3.0]])) == -1.0
        assert determinant(np.eye(4)) == 1.0

    def test_integer_matrices_exact_all_dims(self):
        rng = np.random.default_rng(1)
        for d in range(1, 7):
            for _ in range(60):
                m = rng.integers(-5, 6, size=(d, d)).astype(float)
                assert determinant(m) == leibniz_det(m)

    def test_float_matrices_match_oracle(self):
        rng = np.random.default_rng(2)
        for d in range(1, 7):
            for _ in range(40):
                m = rng.uniform(-2, 2, size=(d, d))
                expected = leibniz_det(m)
                np.testing.assert_allclose(determinant(m), expected, rtol=1e-9, atol=1e-12)

    def test_singular(self):
        m = np.array([[1.0, 2.0], [2.0, 4.0]])
        assert determinant(m) == 0.0
        big = np.ones((5, 5))
        assert determinant(big) == 0.0

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            determinant(np.ones((2, 3)))


class TestAdjugate:
    def test_hand_value(self):
        m = np.array([[2.0, 3.0], [1.0, 2.0]])
        assert np.array_equal(adjugate(m), [[2.0, -3.0], [-1.0, 2.0]])

    def test_d1_is_one(self):
        assert np.array_equal(adjugate(np.array([[7.0]])), [[1.0]])

    def test_matches_oracle_exactly_on_integers(self):
        rng = np.random.default_rng(3)
        for d in range(1, 6):
            for _ in range(40):
                m = rng.integers(-4, 5, size=(d, d)).astype(float)
                assert np.array_equal(adjugate(m), oracle_adjugate(m))

    def test_fundamental_identity(self):
        rng = np.random.default_rng(4)
        for d in range(1, 5):
            for _ in range(50):
                m = rng.uniform(-3, 3, size=(d, d))
                lhs = adjugate(m) @ m
                np.testing.assert_allclose(
                    lhs, determinant(m) * np.eye(d), rtol=1e-9, atol=1e-9
                )

    def test_singular_identity(self):
        m = np.array([[1.0, 2.0], [2.0, 4.0]])
        assert np.array_equal(adjugate(m) @ m, np.zeros((2, 2)))

    def test_memoized_adjugate_equals_plain_expansion(self):
        # d = 5 cofactors share their three-row minors through a memo; each
        # cofactor expanded on its own must give the same bits
        rng = np.random.default_rng(11)
        idx = list(range(5))
        for _ in range(30):
            a = rng.normal(size=(5, 5)).tolist()
            want = np.empty((5, 5))
            for r in idx:
                for c in idx:
                    cof = _cofactor_det(a, idx[:r] + idx[r + 1 :], idx[:c] + idx[c + 1 :])
                    want[c, r] = cof if (r + c) % 2 == 0 else -cof
            assert adjugate(np.array(a)).tobytes() == want.tobytes()


class TestStacking:
    def test_newest_first_layout(self):
        newest = np.array([2.0, 3.0])
        older = np.array([1.0, 2.0])
        m = stack_regressors([newest, older])
        assert np.array_equal(m[0], newest)
        assert np.array_equal(m[1], older)

    def test_shape_errors(self):
        with pytest.raises(ValueError):
            stack_regressors([])
        with pytest.raises(ValueError):
            stack_regressors([np.array([1.0, 2.0])])  # 1 vector of length 2
        with pytest.raises(ValueError):
            stack_regressors([np.ones(3), np.ones(3)])


    @pytest.mark.parametrize("singular", [False, True], ids=["regular", "singular"])
    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    def test_extend_array_and_rows_agree(self, d, singular):
        # the table build passes (d, d) array views, the per-node path lists
        # of rows; both must give the same det and adj bits
        window = np.random.default_rng(d).normal(size=(d, d)).round(3)
        if singular:
            window[:, 0] = 0.0
        rows = [row.copy() for row in window]
        for a, b in ((window, rows), (window[::-1], rows[::-1])):
            (got_det, got_adj), (want_det, want_adj) = extend(a), extend(b)
            assert np.float64(got_det).tobytes() == np.float64(want_det).tobytes()
            assert got_adj.tobytes() == want_adj.tobytes()
            assert (got_det == 0.0) == singular


class TestMix:
    def test_hand_case_recovers_scaled_parameter(self):
        # noise-free: ybar must equal det * theta
        theta = np.array([2.5, -1.0])
        phi_new, phi_old = np.array([2.0, 3.0]), np.array([1.0, 2.0])
        det, adj = extend([phi_new, phi_old])
        assert det == 1.0
        y = [float(theta @ phi_new), float(theta @ phi_old)]
        msg = mix(det, adj, y, sensor=1)
        np.testing.assert_allclose(msg.ybar, det * theta, rtol=1e-12)
        assert msg.delta_bar == 1.0
        assert msg.payload_size == 3

    def test_d1_reduces_to_plain_regression(self):
        msg = mix(*extend([np.array([4.0])]), [8.0])
        assert msg.delta_bar == 4.0
        assert msg.ybar[0] == 8.0  # adj is [[1]]

    def test_stack_length_checked(self):
        det, adj = extend([np.array([2.0, 3.0]), np.array([1.0, 2.0])])
        with pytest.raises(ValueError):
            mix(det, adj, [1.0])


class TestDremTransform:
    def test_warm_up_is_inert(self):
        phi = [np.array([1.0, 2.0])]
        msg = drem_transform(3, phi, [5.0])
        assert msg.delta_bar == 0.0
        assert np.all(msg.ybar == 0.0)
        assert msg.sensor == 3

    def test_full_window_matches_extend_and_mix(self):
        rng = np.random.default_rng(5)
        phi = [rng.uniform(-2, 2, size=2) for _ in range(2)]
        y = [1.25, -0.5]
        msg = drem_transform(1, phi, y)
        det, adj = extend(phi)
        ref = mix(det, adj, y)
        assert msg.delta_bar == det
        assert np.array_equal(msg.ybar, ref.ybar)

    def test_identity_decomposition_randomized(self):
        # ybar = delta * theta + vbar, per channel, for random instances
        rng = np.random.default_rng(6)
        for d in (1, 2, 3):
            theta = rng.uniform(-3, 3, size=d)
            for _ in range(100):
                phi = [rng.uniform(-2, 2, size=d) for _ in range(d)]
                v = rng.normal(size=d)
                y = [float(theta @ p) + v[t] for t, p in enumerate(phi)]
                msg = drem_transform(1, phi, y)
                # the mixed noise: adj(Phi) applied to the stacked noise
                vbar = mix(*extend(phi), v).ybar
                np.testing.assert_allclose(
                    msg.ybar,
                    msg.delta_bar * theta + vbar,
                    rtol=1e-9,
                    atol=1e-9,
                )

    def test_constant_regressor_yields_zero_delta(self):
        phi = [np.array([1.0, 1.0]), np.array([1.0, 1.0])]
        msg = drem_transform(4, phi, [0.5, 0.5])
        assert msg.delta_bar == 0.0  # exactly: duplicate rows

    def test_longer_history_uses_newest_window(self):
        phi = [np.array([2.0, 3.0]), np.array([1.0, 2.0]), np.array([9.0, 9.0])]
        y = [2.0, 0.5, 99.0]
        msg = drem_transform(1, phi, y)
        ref = drem_transform(1, phi[:2], y[:2])
        assert msg.delta_bar == ref.delta_bar
        assert np.array_equal(msg.ybar, ref.ybar)

