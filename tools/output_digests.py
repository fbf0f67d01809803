"""Print the SHA-256 of every CSV the command line writes on sec5, periodic_d3 and table_d5, as one JSON line.

    python tools/output_digests.py --steps 1000

Runs ``run``, ``mc --workers 1``, ``mc --workers 2``, ``oracle``,
``compare --out`` and ``check-pe`` on the builtin sec5 scenario in a
temporary directory, importing the package from ``src/`` beside this
directory. ``run_periodic_d3``, ``mc_periodic_d3_workers1``,
``mc_periodic_d3_workers2`` and ``check_pe_periodic_d3`` run the same ``run``,
``mc`` and ``check-pe`` commands on ``periodic_d3.json`` beside this file:
d = 3 over a two-stage periodic graph, so time-varying neighbourhoods show in
the bytes. The ``_table_d5`` outputs do the same on ``table_d5.json``: d = 5,
so determinants take the Bareiss path, over a table graph with edgeless
steps and custom-table regressors. Two checkouts that print
the same line write the same bytes. The Monte Carlo commands use three
chunks of runs, so two workers really split them. ``noise`` digests the
bytes of 1000 ``noise_block`` draws of sec5's sensor 1 under seed 7, so a
change to the noise stream shows under its own name. The exit status is 1
when the one- and two-worker ``mc`` digests of a scenario differ, or when
those draws differ from 1000 ``sample_noise`` calls. ``simd_found`` lists the
SIMD extensions numpy dispatches to on this CPU, the "found" list of
``np.show_runtime()``: the output bits depend on the (scenario, seed) and on
that list, so two machines compare their digests only when the lists agree.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from dremnet.cli import main as cli  # noqa: E402
from dremnet.harness import CHUNK_RUNS, load_scenario  # noqa: E402
from dremnet.model import NoiseModel, noise_block, sample_noise  # noqa: E402

RUNS = 2 * CHUNK_RUNS + 1
DRAWS = 1000
# scenario -> the suffix of its output names
SCENARIOS = {
    "sec5": "",
    **{str(Path(__file__).with_name(f"{name}.json")): f"_{name}" for name in ("periodic_d3", "table_d5")},
}


def commands(steps: int) -> dict[str, list[str]]:
    """Output name -> CLI arguments, without ``--out``."""
    out = {}
    for scenario, suffix in SCENARIOS.items():
        common = ["--scenario", scenario, "--steps", str(steps)]
        mc = ["mc", *common, "--runs", str(RUNS), "--seed", "3"]
        out[f"run{suffix}"] = ["run", *common, "--seed", "7"]
        out[f"mc{suffix}_workers1"] = [*mc, "--workers", "1"]
        out[f"mc{suffix}_workers2"] = [*mc, "--workers", "2"]
        out[f"check_pe{suffix}"] = ["check-pe", *common]
    common = ["--scenario", "sec5", "--steps", str(steps)]
    return {
        **out,
        "oracle": ["oracle", *common],
        "compare": ["compare", *common, "--runs", "300", "--seed", "5", "--at", f"0,{steps}"],
    }


def digests(steps: int) -> dict[str, str]:
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, argv in commands(steps).items():
            path = Path(tmp) / f"{name}.csv"
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                status = cli([*argv, "--out", str(path)])
            # check-pe exits 1 on a failed audit, as on a horizon too short to certify
            if status not in (0, 1) or not path.exists():
                raise SystemExit(f"{' '.join(argv)} exited with status {status} and no output")
            out[name] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


def noise_draws() -> tuple[bytes, bytes]:
    """The bytes of sec5 sensor 1's first DRAWS draws under seed 7: as one block, and one draw at a time."""
    variances = load_scenario("sec5").variances
    block = noise_block(NoiseModel(variances=variances, seed=7), 1, DRAWS)
    nm = NoiseModel(variances=variances, seed=7)
    singles = np.array([sample_noise(nm, 1, k) for k in range(DRAWS)])
    return block.tobytes(), singles.tobytes()


def simd_found() -> list[str]:
    """numpy's dispatched SIMD extensions that this CPU has, in ``np.show_runtime()``'s order."""
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

    return [feature for feature in __cpu_dispatch__ if __cpu_features__[feature]]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--steps", type=int, default=1000, help="horizon of every command")
    args = parser.parse_args()
    if args.steps < 1:
        parser.error(f"--steps must be positive, got {args.steps}")
    out = digests(args.steps)
    block, singles = noise_draws()
    out["noise"] = hashlib.sha256(block).hexdigest()
    print(json.dumps({"steps": args.steps, **out, "simd_found": simd_found()}, sort_keys=True))
    status = 0
    for scenario, suffix in SCENARIOS.items():
        if out[f"mc{suffix}_workers1"] != out[f"mc{suffix}_workers2"]:
            print(f"mc output on {scenario} differs between one and two workers", file=sys.stderr)
            status = 1
    if block != singles:
        print(f"{DRAWS} noise_block draws differ from {DRAWS} sample_noise calls", file=sys.stderr)
        status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
