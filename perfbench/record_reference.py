"""Record the reference digests the sim-cold and serve-churn checks use.

Usage (from the root of a checkout; takes a few minutes)::

    python3 perfbench/record_reference.py

Writes ``perfbench/reference.json``: for every request seed of the
sim-cold pools, and every (seed, load) of the serve-churn pools, the
SHA-256 of each result's wire document without its wall time.  A run
draws its inputs from the tuning pools unless ``--seed`` is the
held-out seed, which draws from pools no other seed uses.  Re-record
only when a change is meant to alter simulated results, and say so.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.analysis.store import ResultStore  # noqa: E402
from repro.api import Session  # noqa: E402
from workloads import (  # noqa: E402
    SETTINGS,
    SimCold,
    digest,
    serve_churn_loads,
    serve_churn_requests,
    sim_cold_requests,
)

HELD_OUT_SEED = 9001
SIM_COLD = {
    "warmup_seed": 4242,
    "pools": {
        "tuning": list(range(5001, 5041)),
        "held_out": list(range(7001, 7025)),
    },
}
SERVE_CHURN = {
    "setup_load": 0.275,
    "grid": [round(0.3 + 0.05 * i, 3) for i in range(16)],
    "jitter": 0.001,
    "rounds": 6,
    "seeds": {"tuning": 11, "held_out": 17},
}


def main() -> int:
    commit = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
    ).stdout.strip()
    directory = ROOT / ".perfbench_tmp" / "record"
    shutil.rmtree(directory, ignore_errors=True)
    try:
        session = Session(ResultStore(directory / "sim-cold"), jobs=SimCold.jobs, settings=SETTINGS)
        digests = {}
        pools = SIM_COLD["pools"]
        for seed in [SIM_COLD["warmup_seed"], *pools["tuning"], *pools["held_out"]]:
            digests[str(seed)] = [digest(session.run(r)) for r in sim_cold_requests(seed)]
            print(f"sim-cold {seed}", flush=True)
        serve_digests = {}
        for seed in SERVE_CHURN["seeds"].values():
            session = Session(ResultStore(directory / f"serve-{seed}"), jobs=1, settings=SETTINGS)
            for load in [SERVE_CHURN["setup_load"], *serve_churn_loads(SERVE_CHURN, 0)]:
                results = [session.run(r) for r in serve_churn_requests(seed, load)]
                serve_digests[f"{seed}/{load:.3f}"] = [digest(result) for result in results]
            print(f"serve-churn {seed}", flush=True)
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    reference = {
        "recorded_at": commit,
        "held_out_seed": HELD_OUT_SEED,
        "sim_cold": {**SIM_COLD, "digests": digests},
        "serve_churn": {**SERVE_CHURN, "digests": serve_digests},
    }
    with open(ROOT / "perfbench" / "reference.json", "w") as handle:
        json.dump(reference, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
