"""Differential test: template launch == the built schedule's launch.

The search measures a candidate from the schedule template that priced it
(:meth:`~repro.search.space.SearchSpace.launch_for`) instead of building
its :class:`~repro.tiling.schedule.Schedule`. For every candidate of the
pruned space, the template launch must equal
``build_schedule(...).kernel_launch(gpu)``: as a :class:`KernelLaunch`, as
a ``signature()`` tuple with the same element types (the jitter hash sees
their ``repr``, so an ``np.float64`` in place of a ``float`` would move a
measurement), and as a simulated time.

Tier-1 covers the paper chains on A100 with the DAG optimization on; set
``REPRO_TEST_FULL=1`` to add RTX 3080 and the unoptimized spaces.
"""

from __future__ import annotations

import itertools
import os

import pytest

from repro.gpu.simulator import GPUSimulator, SharedMemoryExceeded
from repro.gpu.specs import A100, RTX3080
from repro.search.space import generate_space
from repro.tiling.schedule import build_schedule
from repro.workloads import build_workload, workload_names

CHAINS = workload_names(level="chain")

_PRODUCT = [(A100, True)]
if os.environ.get("REPRO_TEST_FULL") == "1":
    _PRODUCT = list(itertools.product((A100, RTX3080), (True, False)))
CASES = [(name, gpu, optimize) for gpu, optimize in _PRODUCT for name in CHAINS]


def _timed(sim: GPUSimulator, kernel) -> float | str:
    try:
        return sim.run(kernel)
    except SharedMemoryExceeded:
        return "shared memory exceeded"


def assert_same_launch(got, want, where: str) -> None:
    assert got == want, where
    assert got.extra == want.extra, where
    sig_got, sig_want = got.signature(), want.signature()
    assert sig_got == sig_want, where
    assert [type(x) for x in sig_got] == [type(x) for x in sig_want], where


@pytest.mark.parametrize(
    "name,gpu,optimize",
    CASES,
    ids=[f"{n}-{g.name}-{'opt' if o else 'noopt'}" for n, g, o in CASES],
)
def test_every_candidate_launches_like_its_schedule(name, gpu, optimize):
    chain = build_workload(name)
    space = generate_space(chain, gpu, optimize_schedules=optimize)
    sim = GPUSimulator(gpu, seed=0)
    for p, cand in enumerate(space.candidates):
        want = build_schedule(chain, cand.expr, cand.tile_dict, optimize=optimize)
        want = want.kernel_launch(gpu)
        got = space.launch_for(p)
        assert_same_launch(got, want, f"{name} {cand.describe()} optimize={optimize}")
        assert _timed(sim, got) == _timed(sim, want)
    # Launching built nothing beyond the templates.
    assert space.schedules_built == space.templates

