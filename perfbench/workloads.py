"""The benchmark workloads: one timed operation each, its output checks and work counts.

Every workload turns the benchmark seed into its inputs and runs one
operation repeatedly. ``op`` is the timed call into the program; ``inspect``
(untimed) hashes the output, tests it for finite values and derives the work
counts that must repeat exactly; ``check`` runs once per invocation against
an independent reference.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

from dremnet import analysis, harness, topology

# bound on |z| of Monte Carlo moments against the exact oracle; the errors are
# Gaussian (linear in the noise, with a noise-free gating skeleton), so 6 keeps
# false alarms below 1e-8 per checked point
Z_MAX = 6.0
# tolerance where the oracle covariance is exactly zero (no update yet): the
# aggregate must reproduce the deterministic value up to rounding
DET_RTOL = 1e-9
ORACLE_RTOL = 1e-9
REFERENCE = Path(__file__).resolve().parent / "oracle_sec5_ref.json"


def digest(arrays, csv_path: Path) -> tuple[str, bool, int]:
    """SHA-256 over the output arrays and CSV bytes, all-finite flag, CSV size."""
    h = hashlib.sha256()
    finite = True
    for a in arrays:
        a = np.ascontiguousarray(a)
        if a.dtype.kind == "f" and not np.all(np.isfinite(a)):
            finite = False
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    data = Path(csv_path).read_bytes()
    h.update(data)
    return h.hexdigest(), finite, len(data)


def _skeleton(s: harness.Scenario, horizon: int) -> tuple[int, float, int]:
    """Effective updates, gate-open fraction and payload reals of one run.

    The gating skeleton never depends on the noise, so every run of a
    scenario shares these counts.
    """
    t = harness.step_tables(s, horizon)
    effective = int(t.effective.sum())
    gate_open = float((t.counters[:, :horizon] >= s.d).mean()) if horizon else 0.0
    payload = (s.d + 1) * sum(
        len(topology.out_neighbors(s.graph, i, k))
        for i in range(1, s.n + 1)
        for k in range(horizon)
    )
    return effective, gate_open, payload


def single_run_problems(s: harness.Scenario, seed: int, horizon: int, run=None) -> list[str]:
    """An m=1 Monte Carlo aggregate must equal run_single bit for bit."""
    if run is None:
        run = harness.run_single(s, seed, horizon=horizon)
    agg = harness.run_monte_carlo(s, 1, seed - 1, workers=1, horizon=horizon)
    tilde = run.theta_hat - s.theta[None, None, :]
    problems = []
    if agg.mean_tilde.tobytes() != tilde.tobytes():
        problems.append(f"m=1 run_monte_carlo mean_tilde differs from run_single (seed {seed})")
    if agg.mean_error_norm.tobytes() != run.error_norm.tobytes():
        problems.append(f"m=1 run_monte_carlo error norm differs from run_single (seed {seed})")
    if np.any(agg.var_tilde != 0.0):
        problems.append("m=1 run_monte_carlo reports a nonzero variance")
    return problems


def moment_problems(agg, mom, runs: int) -> tuple[list[str], dict]:
    """z-scores of the Monte Carlo mean and variance against the exact oracle.

    Means use z = (mean - E) / sqrt(cov / M). Variances use the
    Wilson-Hilferty cube-root transform of (M-1) var / cov ~ chi2(M-1).
    Where the oracle covariance is zero, the aggregate must match the
    deterministic value up to rounding.
    """
    mean, cov = mom.mean, mom.cov_exact
    emp_mean, emp_var = agg.mean_tilde, agg.var_tilde
    pos = cov > 0.0
    problems = []
    z_mean = np.abs(emp_mean[pos] - mean[pos]) / np.sqrt(cov[pos] / runs)
    scale = np.maximum(1.0, np.abs(mean[~pos]))
    det_mean = np.abs(emp_mean[~pos] - mean[~pos]) / scale
    det_var = np.abs(emp_var[~pos]) / (scale * scale)
    z_mean_max = float(z_mean.max()) if z_mean.size else 0.0
    z_var_max = 0.0
    if runs > 1 and pos.any():
        nu = runs - 1
        sd = math.sqrt(2.0 / (9.0 * nu))
        z_var = np.abs(np.cbrt(emp_var[pos] / cov[pos]) - (1.0 - 2.0 / (9.0 * nu))) / sd
        z_var_max = float(z_var.max())
    if z_mean_max > Z_MAX:
        problems.append(f"Monte Carlo mean off the oracle: max |z| {z_mean_max:.3g} > {Z_MAX}")
    if z_var_max > Z_MAX:
        problems.append(f"Monte Carlo variance off the oracle: max |z| {z_var_max:.3g} > {Z_MAX}")
    det_max = max(det_mean.max(initial=0.0), det_var.max(initial=0.0))
    if det_max > DET_RTOL:
        problems.append(f"deterministic steps off the oracle by {det_max:.3g} (relative)")
    return problems, {"z_mean_max": z_mean_max, "z_var_max": z_var_max, "det_rel_max": float(det_max)}


class Workload:
    """Base: op ``i`` uses ``seeds[i % len(seeds)]``; outputs go to ``csv``."""

    name = ""
    seeds: tuple[int, ...] = (0,)

    def __init__(self, s: harness.Scenario, seed: int, workdir: Path) -> None:
        self.s = s
        self.csv = Path(workdir) / f"{self.name}.csv"

    def seed_index(self, i: int) -> int:
        return i % len(self.seeds)

    def op(self, i: int):
        raise NotImplementedError

    def inspect(self, value) -> tuple[str, bool, dict, int]:
        """(digest, finite, work counts, work units) of one output."""
        raise NotImplementedError

    def expected_calls(self) -> dict:
        """Call and draw counts per operation implied by the workload's size."""
        raise NotImplementedError

    def check(self, first) -> tuple[list[str], dict]:
        raise NotImplementedError


class MonteCarlo(Workload):
    """``run_monte_carlo`` over ``runs`` seeds plus ``export_csv``."""

    name = "mc_sec5"

    def __init__(self, s, seed, workdir, runs: int, horizon: int) -> None:
        super().__init__(s, seed, workdir)
        self.runs, self.horizon = runs, horizon
        self.base_seed = 10_000 * seed
        self.seeds = (self.base_seed,)
        self.effective, self.gate_open, self.payload = _skeleton(s, horizon)

    def op(self, i):
        agg = harness.run_monte_carlo(
            self.s, self.runs, self.base_seed, workers=1, horizon=self.horizon
        )
        harness.export_csv(agg, self.csv)
        return agg

    def inspect(self, agg):
        h, finite, size = digest((agg.mean_error_norm, agg.mean_tilde, agg.var_tilde), self.csv)
        counts = {
            "harness.export_csv.bytes": size,
            "analysis.export_oracle_csv.bytes": 0,
            "estimator.effective_updates": self.runs * self.effective,
            "estimator.gate_open_frac": self.gate_open,
            "harness.payload_total": self.runs * self.payload,
        }
        return h, finite, counts, self.runs * self.horizon

    def expected_calls(self):
        s, K = self.s, self.horizon
        chunks = -(-self.runs // harness.CHUNK_RUNS)
        return {
            "harness.run_monte_carlo.calls": 1,
            "harness.step_tables.calls": chunks,
            "harness.export_csv.calls": 1,
            "drem.extend.calls": chunks * s.n * max(K - s.d + 1, 0),
            "model.noise_block.calls": self.runs * s.n,
            "model.noise.draws": self.runs * s.n * K,
        }

    def check(self, agg):
        problems, info = moment_problems(agg, analysis.moments(self.s, self.horizon), self.runs)
        problems += single_run_problems(self.s, self.base_seed + 1, self.horizon)
        return problems, info


class Oracle(Workload):
    """``theorem_check`` plus ``moments`` plus ``export_oracle_csv`` on sec5.

    The oracle is deterministic: the seed changes no input here.
    """

    name = "oracle_sec5"

    def __init__(self, s, seed, workdir, horizon: int) -> None:
        super().__init__(s, seed, workdir)
        self.horizon = horizon
        self.effective, self.gate_open, _ = _skeleton(s, horizon)

    def op(self, i):
        report = analysis.theorem_check(self.s, horizon=self.horizon)
        mom = analysis.moments(self.s, self.horizon)
        analysis.export_oracle_csv(mom, self.csv)
        return report, mom

    def inspect(self, value):
        report, mom = value
        arrays = (
            report.mean_final,
            report.cov_final,
            np.array([report.ratio_max]),
            mom.mean,
            mom.cov_exact,
            mom.cov_bound,
        )
        h, finite, size = digest(arrays, self.csv)
        counts = {
            "harness.export_csv.bytes": 0,
            "analysis.export_oracle_csv.bytes": size,
            "estimator.effective_updates": self.effective,
            "estimator.gate_open_frac": self.gate_open,
            "harness.payload_total": 0,
        }
        # theorem_check and moments each run the mean and covariance recursions
        return h, finite, counts, 4 * self.horizon

    def expected_calls(self):
        s, K = self.s, self.horizon
        return {
            "analysis.theorem_check.calls": 1,
            "analysis.moments.calls": 1,
            "harness.step_tables.calls": 6,
            "drem.extend.calls": 6 * s.n * max(K - s.d + 1, 0),
            "model.noise.draws": 0,
        }

    def check(self, value):
        report, mom = value
        ref = json.loads(REFERENCE.read_text())
        if ref["horizon"] != self.horizon:
            return [f"reference horizon {ref['horizon']} != workload horizon {self.horizon}"], {}
        got = reference_values(report, mom, ref["checkpoints"])
        problems = []
        for key, want in ref["values"].items():
            a, b = np.asarray(got[key], dtype=float), np.asarray(want, dtype=float)
            if a.shape != b.shape or not np.allclose(a, b, rtol=ORACLE_RTOL, atol=0.0):
                problems.append(f"oracle {key} differs from the stored reference")
        if list(report.violations) != ref["violations"]:
            problems.append("theorem_check violations differ from the stored reference")
        return problems, {"theorem_ok": bool(report.ok)}


def reference_values(report, mom, checkpoints) -> dict:
    """The oracle numbers compared against the stored reference."""
    ks = list(checkpoints)
    return {
        "mean_final": report.mean_final.tolist(),
        "cov_final": report.cov_final.tolist(),
        "ratio_max": [float(report.ratio_max)],
        "mean": mom.mean[:, ks].tolist(),
        "cov_exact": mom.cov_exact[:, ks].tolist(),
        "cov_bound": mom.cov_bound[:, ks].tolist(),
    }


class SingleRuns(Workload):
    """Closed loop of ``run_single`` over a cycle of seeds plus ``export_csv``."""

    name = "run_sec5"

    def __init__(self, s, seed, workdir, horizon: int, cycle: int) -> None:
        super().__init__(s, seed, workdir)
        self.horizon = horizon
        self.seeds = tuple(10_000 * seed + j for j in range(1, cycle + 1))

    def op(self, i):
        run = harness.run_single(self.s, self.seeds[self.seed_index(i)], horizon=self.horizon)
        harness.export_csv(run, self.csv)
        return run

    def inspect(self, run):
        h, finite, size = digest((run.theta_hat, run.error_norm, run.effective, run.counters), self.csv)
        K = self.horizon
        counts = {
            "harness.export_csv.bytes": size,
            "analysis.export_oracle_csv.bytes": 0,
            "estimator.effective_updates": int(run.effective.sum()),
            "estimator.gate_open_frac": float((run.counters[:, :K] >= self.s.d).mean()) if K else 0.0,
            "harness.payload_total": int(run.payload_total),
        }
        return h, finite, counts, K

    def expected_calls(self):
        s, K = self.s, self.horizon
        return {
            "harness.run_single.calls": 1,
            "harness.step_tables.calls": 0,
            "drem.extend.calls": s.n * max(K - s.d + 1, 0),
            "estimator.node_step.calls": s.n * K,
            "model.sample_noise.calls": s.n * K,
            "model.noise.draws": s.n * K,
        }

    def check(self, run):
        return single_run_problems(self.s, self.seeds[0], self.horizon, run), {}


# name -> factory(scenario, seed, workdir)
WORKLOADS = {
    "mc_sec5": lambda s, seed, w: MonteCarlo(s, seed, w, runs=256, horizon=500),
    "oracle_sec5": lambda s, seed, w: Oracle(s, seed, w, horizon=1000),
    "run_sec5": lambda s, seed, w: SingleRuns(s, seed, w, horizon=500, cycle=8),
}
