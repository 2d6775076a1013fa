"""Golden seeded tunes: every Table II/III chain against a frozen record.

The simulated clock is deterministic, so any change to what a seeded
default tune selects, bills or counts is a behaviour change. This test
pins, per chain, the best schedule, its simulated time, the simulated
tuning seconds, the measurement and estimate counts and the full pruning
funnel, so such a change fails here rather than only in the benchmark.

Regenerate (only for an intended change of the simulated clock):

    PYTHONPATH=src python tests/test_golden_tune.py
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys

import pytest

from repro.config import SessionConfig
from repro.gpu.specs import A100
from repro.search.tuner import MCFuserTuner
from repro.workloads import build_workload, workload_names

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "tune_chains.json")


def tune_record(name: str) -> dict:
    """The pinned outcome of one seeded default cold tune of ``name``."""
    tuner = MCFuserTuner(A100, config=SessionConfig.make(seed=0, cache_enabled=False))
    report = tuner.tune(build_workload(name))
    return {
        "best": report.best_schedule.describe(),
        "best_time": report.best_time,
        "tuning_seconds": report.tuning_seconds,
        "num_measurements": report.search.num_measurements,
        "num_estimates": report.search.num_estimates,
        "pruning": dataclasses.asdict(report.pruning),
    }


def _golden() -> dict:
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


def test_golden_covers_every_chain():
    assert sorted(_golden()) == sorted(workload_names(level="chain"))


@pytest.mark.parametrize("name", workload_names(level="chain"))
def test_seeded_tune_matches_golden(name):
    # Exact equality, floats included: JSON round-trips doubles exactly.
    assert tune_record(name) == _golden()[name]


if __name__ == "__main__":
    records = {name: tune_record(name) for name in workload_names(level="chain")}
    out = sys.argv[1] if len(sys.argv) > 1 else GOLDEN
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(records, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(records)} records to {out}")
