"""Analytical moment recursions for the gated distributed estimator.

With deterministic regressors, graph, and step sizes, the whole gating
skeleton of a scenario is deterministic; only the noise is random. The error
theta_tilde = theta_hat - theta then obeys exact per-channel recursions:

    E[theta_tilde(k+1)]   = (1 - beta_i(k)) E[theta_tilde(k)]
    cov[theta_tilde(k+1)] = (1 - beta_i(k))^2 cov[theta_tilde(k)] + eps_il(k)

with the contraction factor beta_i(k) = alpha(k) S_i(k) / (mu_i + S_i(k)),
S_i(k) the gated sum of squared scalar regressors, and the driving term

    eps_il(k) = (alpha(k) / (mu_i + S_i(k)))^2
                * sum_j delta_j(k)^2 cov[vbar_jl(k)].

The counter spacing makes successive update windows disjoint, so the noise
entering an update is independent of the current error and of the noise of
earlier updates; that independence is what makes these recursions exact (and
it is checked empirically against Monte Carlo output by the test suite). At
non-update steps S=0 forces beta = eps = 0 and both moments hold still.

A looser companion recursion replaces (1-beta)^2 by (1-beta); it dominates
the exact covariance and is the form the convergence argument bounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .harness import Scenario, _horizon, check_scenario, step_rows, step_tables, write_csv
from .model import _finite
from .topology import neighborhood_values

__all__ = [
    "StepCoefficients",
    "MomentTrajectory",
    "TheoremReport",
    "beta",
    "step_coefficients",
    "mean_recursion",
    "covariance_recursion",
    "moments",
    "theorem_check",
    "export_oracle_csv",
]


def beta(alpha: float, mu: float, gated_sum: float) -> float:
    """Contraction factor alpha * S / (mu + S); always in [0, alpha]."""
    _finite((mu,), "mu", positive=True)
    if _finite((gated_sum,), "gated sum")[0] < 0.0:
        raise ValueError(f"gated sum must be nonnegative, got {gated_sum}")
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
    return alpha * gated_sum / (mu + gated_sum)


@dataclass(frozen=True, eq=False)
class StepCoefficients:
    """Per-step deterministic coefficients of the moment recursions.

    ``beta[i-1, k]`` and ``epsilon[i-1, k, l-1]`` drive sensor i's channel-l
    recursions; ``noise_var[j-1, k, l-1]`` is cov of the mixed noise
    vbar_jl(k); ``gated_sum`` is S_i(k).
    """

    alpha: np.ndarray      # (K,)
    beta: np.ndarray       # (n, K)
    epsilon: np.ndarray    # (n, K, d)
    gated_sum: np.ndarray  # (n, K)
    noise_var: np.ndarray  # (n, K, d)

    def __post_init__(self):
        if not np.all((self.beta >= 0.0) & (self.beta <= self.alpha[None, :])):
            raise ValueError("beta must lie in [0, alpha] at every step")
        if not np.all(self.epsilon >= 0.0):
            raise ValueError("epsilon must be nonnegative")


def step_coefficients(s: Scenario, horizon: Optional[int] = None) -> StepCoefficients:
    """Evaluate beta, epsilon, and the mixed-noise variances over a horizon."""
    t = step_tables(s, horizon)
    n, d, K = s.n, s.d, t.horizon
    # vecdot runs np.dot's kernel, whose rounding a channel loop does not match
    noise_var = np.array(s.variances)[:, None, None] * np.vecdot(t.adj, t.adj)
    srow = t.gated_sum
    on = t.effective
    mu = np.array(s.mu)[:, None]
    bet = np.where(on, t.alpha * srow / (mu + srow), 0.0)
    # a float ** 2 squares through libm pow, which float_power keeps and the
    # array ** 2 (a plain multiply) does not
    gain = np.float_power(t.alpha / (mu + srow), 2.0)
    dlt = neighborhood_values(t.members, t.delta)
    nv = neighborhood_values(t.members, noise_var)
    eps = np.zeros((n, K, d))
    for p in range(t.members.shape[2]):
        eps += (gain * dlt[:, :, p] * dlt[:, :, p])[:, :, None] * nv[:, :, p]
    eps = np.where(on[:, :, None], eps, 0.0)
    return StepCoefficients(
        alpha=t.alpha, beta=bet, epsilon=eps, gated_sum=t.gated_sum, noise_var=noise_var
    )


def mean_recursion(s: Scenario, horizon: Optional[int] = None) -> np.ndarray:
    """Exact expected-error trajectory, shape (n, horizon+1, d).

    Starts from theta_hat0 - theta and contracts by (1 - beta_i(k)) each
    step; non-update steps have beta = 0 and hold the mean constant.
    """
    coef = step_coefficients(s, horizon)
    n, K = coef.beta.shape
    start = (s.theta_hat0 - s.theta[None, :])[:, None, :]
    damp = np.broadcast_to((1.0 - coef.beta)[:, :, None], (n, K, s.d))
    return np.multiply.accumulate(np.concatenate([start, damp], axis=1), axis=1)


def covariance_recursion(
    s: Scenario, horizon: Optional[int] = None
) -> tuple[np.ndarray, np.ndarray]:
    """Exact covariance trajectory and its dominating bound, (n, horizon+1, d).

    Both start at zero (the initial estimate is deterministic) and share the
    driving term epsilon; the bound contracts by (1-beta) instead of
    (1-beta)^2, so exact <= bound pointwise.
    """
    coef = step_coefficients(s, horizon)
    n, K = coef.beta.shape
    damp = 1.0 - coef.beta
    # where beta and epsilon are zero, damp is 1.0 and 1.0 * e + 0.0 == e for
    # every e >= +0, so each recursion visits its update steps only
    upd = (coef.beta != 0.0) | (coef.epsilon != 0.0).any(axis=2)
    exact = np.zeros((n, K + 1, s.d))
    bound = np.zeros((n, K + 1, s.d))
    for i in range(n):
        ks = np.flatnonzero(upd[i])
        dks = damp[i, ks]
        dk_i, sq_i = dks.tolist(), (dks * dks).tolist()
        done = np.concatenate([[0], np.cumsum(upd[i])])  # updates before each step
        # one scalar recursion per channel on Python floats, which round as
        # numpy's elementwise operations do (CPython fuses no multiply-add)
        for l, eps_il in enumerate(coef.epsilon[i, ks].T.tolist()):
            ex, bd = [e := 0.0], [b := 0.0]
            for dk, sq, ek in zip(dk_i, sq_i, eps_il):
                ex.append(e := sq * e + ek)
                bd.append(b := dk * b + ek)
            exact[i, :, l], bound[i, :, l] = np.take(ex, done), np.take(bd, done)
    return exact, bound


@dataclass(frozen=True, eq=False)
class MomentTrajectory:
    """Mean and covariance trajectories on the simulation step grid."""

    mean: np.ndarray       # (n, K+1, d)
    cov_exact: np.ndarray  # (n, K+1, d)
    cov_bound: np.ndarray  # (n, K+1, d)

    def __post_init__(self):
        if np.any(self.cov_exact < 0) or np.any(self.cov_bound < 0):
            raise ValueError("covariances must be nonnegative")


def moments(s: Scenario, horizon: Optional[int] = None) -> MomentTrajectory:
    exact, bound = covariance_recursion(s, horizon)
    return MomentTrajectory(mean=mean_recursion(s, horizon), cov_exact=exact, cov_bound=bound)


# theorem_check counts a terminal |mean| or cov below this as vanished
_THRESHOLD = 1e-2


@dataclass(frozen=True, eq=False)
class TheoremReport:
    """Outcome of the mean-square convergence audit on one scenario.

    ``violations`` lists broken standing assumptions; ``mean_final`` and
    ``cov_final`` are the per-sensor, per-channel terminal |E[theta_tilde]|
    and cov, each judged against 1e-2; ``ratio_max`` is the largest realized
    eps/beta over effective steps, judged against its analytical cap
    C alpha / mu with C = max cov[vbar_jl(k)], the largest mixed-noise variance.
    """

    horizon: int
    violations: tuple[str, ...]
    mean_final: np.ndarray
    cov_final: np.ndarray
    mean_ok: bool
    cov_ok: bool
    ratio_max: float
    ratio_cap_ok: bool
    ok: bool


def theorem_check(s: Scenario, horizon: Optional[int] = None) -> TheoremReport:
    """Audit assumptions and whether both moments fall below 1e-2.

    The assumptions are audited by ``check_scenario`` with its defaults
    (windows H <= 8, omega = 1). Convergence is judged on the oracle
    recursions at the final step; epsilon/beta is additionally checked
    against its cap C * alpha / mu with C the largest mixed-noise variance
    cov[vbar_jl(k)] over all sensors, steps and channels.
    """
    K = _horizon(s, horizon)
    report = check_scenario(s, horizon=K)
    coef = step_coefficients(s, K)
    mean = mean_recursion(s, K)
    exact, _ = covariance_recursion(s, K)
    mean_final = np.abs(mean[:, K])
    cov_final = exact[:, K]
    mean_ok = bool(np.all(mean_final < _THRESHOLD))
    cov_ok = bool(np.all(cov_final < _THRESHOLD))
    cap_const = float(np.max(coef.noise_var))
    on = coef.beta != 0.0
    ratio = coef.epsilon.max(axis=2)[on] / coef.beta[on]
    cap = (cap_const * coef.alpha / np.array(s.mu)[:, None])[on]
    ratio_max = float(ratio.max(initial=0.0))
    ratio_ok = not np.any(ratio > cap * (1.0 + 1e-12))
    return TheoremReport(
        horizon=K,
        violations=report.problems,
        mean_final=mean_final,
        cov_final=cov_final,
        mean_ok=mean_ok,
        cov_ok=cov_ok,
        ratio_max=ratio_max,
        ratio_cap_ok=ratio_ok,
        ok=not report.problems and mean_ok and cov_ok,
    )


def export_oracle_csv(m: MomentTrajectory, path) -> None:
    """Write oracle trajectories as CSV rows k, i, l, mean, cov_exact, cov_bound.

    ``path`` may also be an open text stream.
    """
    values = np.stack([m.mean, m.cov_exact, m.cov_bound], axis=-1)
    write_csv(path, "k,i,l,mean,cov_exact,cov_bound", step_rows(values))
