"""Acceptance gate: one test per criterion, each printing its verdict line.

Tolerances are pinned in the assertions. The Monte Carlo fixtures are module
scoped so the heavy aggregates are computed once.
"""

import dataclasses
import filecmp

import numpy as np
import pytest

from dremnet.analysis import covariance_recursion, mean_recursion
from dremnet.cli import main
from dremnet.drem import adjugate, determinant, drem_transform, extend, mix
from dremnet.excitation import find_certificate, single_sensor_pe
from dremnet.harness import delta_traces, run_monte_carlo, run_single

from test_drem import leibniz_det, oracle_adjugate
from test_harness import consumption_trail, single_use_problems


def _report(criterion: int, description: str, ok: bool, detail: str = "") -> None:
    line = f"[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {description}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def mc1000(sec5):
    return run_monte_carlo(sec5, runs=1000, base_seed=0, horizon=500)


@pytest.fixture(scope="module")
def mc10k(sec5):
    return run_monte_carlo(sec5, runs=10_000, base_seed=0, horizon=500)


def test_criterion_1_identity():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(1000):
        d = int(rng.integers(1, 4))
        theta = rng.uniform(-3, 3, size=d)
        phi = [rng.uniform(-2, 2, size=d) for _ in range(d)]
        v = rng.normal(size=d)
        y = [float(theta @ p) + v[r] for r, p in enumerate(phi)]
        msg = drem_transform(1, phi, y)
        vbar = mix(*extend(phi), v).ybar  # adj(Phi) applied to the stacked noise
        rhs = msg.delta_bar * theta + vbar
        rel = np.max(np.abs(msg.ybar - rhs) / np.maximum(np.abs(rhs), 1e-300))
        worst = max(worst, float(rel))
    _report(
        1,
        "mixed measurement decomposes as delta_bar * theta + mixed noise "
        "(1000 instances, d in {1,2,3}, rel err < 1e-9)",
        worst < 1e-9,
        f"worst relative error {worst:.3e}",
    )


def test_criterion_2_adjugate_oracle():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(1000):
        d = int(rng.integers(1, 5))
        m = rng.uniform(-2, 2, size=(d, d))
        det = determinant(m)
        res = np.max(np.abs(adjugate(m) @ m - det * np.eye(d)))
        worst = max(worst, float(res) / max(1.0, abs(det)))
    exact = True
    for _ in range(300):
        d = int(rng.integers(1, 5))
        m = rng.integers(-5, 6, size=(d, d)).astype(float)
        exact = exact and determinant(m) == leibniz_det(m)
        exact = exact and np.array_equal(adjugate(m), oracle_adjugate(m))
    _report(
        2,
        "adj(M) M = det(M) I within 1e-9 on 1000 random matrices (d <= 4) "
        "and exact agreement with the cofactor oracle on integer matrices",
        worst < 1e-9 and exact,
        f"worst scaled residual {worst:.3e}, integer-exact={exact}",
    )


def test_criterion_3_noise_free_convergence(sec5_noise_free):
    res = run_single(sec5_noise_free, seed=1, horizon=500)
    finals = res.error_norm[:, -1]
    _report(
        3,
        "noise-free builtin run reaches error norm < 1e-3 at k=500 for every sensor",
        bool(np.all(finals < 1e-3)),
        "finals " + ", ".join(f"{v:.4f}" for v in finals)
        + "; the k**-0.23-type contraction of the harmonic step size with "
        "3-step gating has not decayed anywhere near 1e-3 by k=500",
    )


def test_criterion_4_error_ratio(mc1000):
    ratio = mc1000.mean_error_norm[:, 500] / mc1000.mean_error_norm[:, 10]
    _report(
        4,
        "M=1000 mean error norm at k=500 is <= 15% of its k=10 value per sensor",
        bool(np.all(ratio <= 0.15)),
        "ratios " + ", ".join(f"{v:.3f}" for v in ratio),
    )


def test_criterion_4_smoothed_shape(mc1000):
    kernel = np.ones(50) / 50.0
    ok = True
    worst = -np.inf
    for i in range(4):
        smooth = np.convolve(mc1000.mean_error_norm[i], kernel, mode="valid")
        worst = max(worst, float(np.max(np.diff(smooth))))
        ok = ok and bool(np.all(np.diff(smooth) <= 1e-12))
    _report(
        4,
        "M=1000 mean error curves are non-increasing under a 50-step moving average",
        ok,
        f"largest smoothed increment {worst:.3e}",
    )


def test_criterion_5_mean_oracle_agreement(sec5, mc10k):
    mean = mean_recursion(sec5, horizon=500)
    worst = 0.0
    for k in (10, 100, 500):
        se = np.sqrt(mc10k.var_tilde[:, k] / mc10k.runs)
        gap = np.abs(mc10k.mean_tilde[:, k] - mean[:, k])
        worst = max(worst, float(np.max(gap / se)))
    _report(
        5,
        "M=10^4 empirical mean matches the mean recursion within 4 standard errors "
        "at k in {10, 100, 500}",
        worst <= 4.0,
        f"worst gap {worst:.2f} standard errors",
    )


def test_criterion_6_variance_oracle_and_bound(sec5, mc10k):
    exact, bound = covariance_recursion(sec5, horizon=500)
    worst_rel = 0.0
    for k in (10, 100, 500):
        rel = np.abs(mc10k.var_tilde[:, k] - exact[:, k]) / exact[:, k]
        worst_rel = max(worst_rel, float(np.max(rel)))
    # sampling noise of a variance estimate: se ~ sigma^2 sqrt(2/(M-1))
    se = exact * np.sqrt(2.0 / (mc10k.runs - 1))
    excess = mc10k.var_tilde - (bound + 4.0 * se)
    _report(
        6,
        "M=10^4 empirical variance matches the exact covariance recursion within "
        "10% at the checkpoints and never exceeds the bound trajectory by more "
        "than 4 standard errors",
        worst_rel <= 0.10 and bool(np.all(excess <= 0.0)),
        f"worst relative gap {worst_rel:.4f}, max bound excess {float(np.max(excess)):.3e}",
    )


def test_criterion_7_excitation_audit(sec5):
    trace = delta_traces(sec5, horizon=200)
    found = find_certificate(trace, sec5.graph, omega=1.0, max_h=8)
    all_certified = all(h is not None for h in found.values())
    sensor4_alone = all(
        not single_sensor_pe(trace, 4, H, omega=1.0)[0] for H in range(1, 51)
    )
    sensor1_h1, margin1 = single_sensor_pe(trace, 1, 1, omega=1.0)
    ok = all_certified and sensor4_alone and sensor1_h1
    _report(
        7,
        "every sensor certifies neighborhood excitation with H <= 8 (omega=1, "
        "horizon 200); sensor 4 fails alone for all H <= 50; sensor 1 passes alone at H=1",
        ok,
        f"certificates {found}, sensor-1 margin {margin1}",
    )


def test_criterion_8_single_use(sec5):
    res = run_single(sec5, seed=42, horizon=2000)
    problems = single_use_problems(sec5, res)
    _report(
        8,
        "2000-step run consumes no (sensor, time) measurement pair twice and "
        "spaces effective updates >= d+1 apart",
        not problems,
        "; ".join(problems) or f"trail sizes {[len(c) for c in consumption_trail(sec5, res)]}",
    )


def test_criterion_9_worker_determinism(tmp_path):
    out1 = tmp_path / "w1.csv"
    out8 = tmp_path / "w8.csv"
    args = ["mc", "--runs", "100", "--seed", "42", "--out"]
    assert main(args + [str(out1), "--workers", "1"]) == 0
    assert main(args + [str(out8), "--workers", "8"]) == 0
    identical = filecmp.cmp(out1, out8, shallow=False)
    _report(
        9,
        "mc --runs 100 --seed 42 produces byte-identical CSV for 1 and 8 workers",
        identical,
        f"{out1.stat().st_size} bytes each",
    )
