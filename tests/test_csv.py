"""Byte-level checks of every CSV the package writes.

The references are plain per-row f-string writers: repr floats, LF line
ends, rows ordered by step k, then sensor i, then channel l. They run on
sec5 and on the d = 3 ``periodic_d3`` scenario, so the channel-numbered
headers are covered beyond d = 2.
"""

import io

import pytest

from dremnet import cli, harness
from dremnet.analysis import export_oracle_csv, moments
from dremnet.harness import (
    check_scenario,
    export_csv,
    run_monte_carlo,
    run_single,
)

SCENARIOS = ["sec5", "periodic_d3"]
STEPS = 30


@pytest.fixture(params=SCENARIOS)
def scenario(request):
    return request.param, request.getfixturevalue(request.param)


def channel_names(prefix, d):
    return [f"{prefix}_{l}" for l in range(1, d + 1)]


def ref_run(run):
    n, steps, d = run.theta_hat.shape
    out = [",".join(["k", "i", "error_norm"] + channel_names("theta_hat", d)) + "\n"]
    for k in range(steps):
        for i in range(1, n + 1):
            cells = [float(run.error_norm[i - 1, k])] + [float(v) for v in run.theta_hat[i - 1, k]]
            out.append(f"{k},{i}," + ",".join(f"{v!r}" for v in cells) + "\n")
    return "".join(out)


def ref_aggregate(agg):
    n, steps, d = agg.mean_tilde.shape
    header = (
        ["k", "i", "mean_error_norm"]
        + channel_names("mean_tilde", d)
        + channel_names("var_tilde", d)
    )
    out = [",".join(header) + "\n"]
    for k in range(steps):
        for i in range(1, n + 1):
            cells = (
                [float(agg.mean_error_norm[i - 1, k])]
                + [float(v) for v in agg.mean_tilde[i - 1, k]]
                + [float(v) for v in agg.var_tilde[i - 1, k]]
            )
            out.append(f"{k},{i}," + ",".join(f"{v!r}" for v in cells) + "\n")
    return "".join(out)


def ref_per_channel(header, arrays):
    n, steps, d = arrays[0].shape
    out = [header + "\n"]
    for k in range(steps):
        for i in range(1, n + 1):
            for l in range(1, d + 1):
                cells = [f"{float(a[i - 1, k, l - 1])!r}" for a in arrays]
                out.append(f"{k},{i},{l}," + ",".join(cells) + "\n")
    return "".join(out)


def ref_check_pe(report, n):
    out = ["sensor,bound,local_H,local_margin,local_satisfied,single_H\n"]
    for i in range(1, n + 1):
        h, sh = report.pe_h[i], report.single_pe_h[i]
        out.append(
            f"{i},{report.bounds[i - 1]!r},{'' if h is None else h},"
            f"{report.pe_margin[i]!r},{h is not None},{'' if sh is None else sh}\n"
        )
    return "".join(out)


def test_run(scenario, tmp_path):
    _, s = scenario
    run = run_single(s, seed=3, horizon=STEPS)
    export_csv(run, tmp_path / "run.csv")
    assert (tmp_path / "run.csv").read_bytes() == ref_run(run).encode()


def test_aggregate(scenario, tmp_path, monkeypatch):
    _, s = scenario
    monkeypatch.setattr(harness, "CHUNK_RUNS", 8)
    agg = run_monte_carlo(s, 20, 4, horizon=STEPS)
    export_csv(agg, tmp_path / "agg.csv")
    assert (tmp_path / "agg.csv").read_bytes() == ref_aggregate(agg).encode()


def test_oracle_path_and_stream(scenario, tmp_path):
    _, s = scenario
    m = moments(s, STEPS)
    want = ref_per_channel("k,i,l,mean,cov_exact,cov_bound", [m.mean, m.cov_exact, m.cov_bound])
    export_oracle_csv(m, tmp_path / "oracle.csv")
    assert (tmp_path / "oracle.csv").read_bytes() == want.encode()
    stream = io.StringIO()
    export_oracle_csv(m, stream)
    assert stream.getvalue() == want


def test_compare(scenario, tmp_path, monkeypatch):
    _, s = scenario
    monkeypatch.setattr(cli, "load_scenario", lambda _: s)
    p = tmp_path / "cmp.csv"
    args = ["compare", "--runs", "12", "--seed", "2", "--steps", str(STEPS), "--at", "5"]
    assert cli.main(args + ["--out", str(p)]) == 0
    agg = run_monte_carlo(s, 12, 2, horizon=STEPS)
    m = moments(s, STEPS)
    want = ref_per_channel(
        "k,i,l,mc_mean,oracle_mean,mc_var,oracle_var_exact,oracle_var_bound",
        [agg.mean_tilde, m.mean, agg.var_tilde, m.cov_exact, m.cov_bound],
    )
    assert p.read_bytes() == want.encode()


def test_check_pe_file_and_stdout(scenario, tmp_path, monkeypatch, capsys):
    _, s = scenario
    monkeypatch.setattr(cli, "load_scenario", lambda _: s)
    want = ref_check_pe(check_scenario(s, horizon=120), s.n)
    p = tmp_path / "pe.csv"
    rc = cli.main(["check-pe", "--steps", "120", "--out", str(p)])
    assert p.read_bytes() == want.encode()
    capsys.readouterr()
    assert cli.main(["check-pe", "--steps", "120"]) == rc
    assert capsys.readouterr().out == want

