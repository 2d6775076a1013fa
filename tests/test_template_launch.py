"""Differential test: the space's measurement arrays == the built schedule's launch.

The search measures a position from arrays its space computes once
(:meth:`~repro.search.space.SearchSpace.measure`), not from a built
:class:`~repro.tiling.schedule.Schedule`: the point's measured shared
memory (``space.shared_memory``), its jitter-free simulated time, and the
simulator's seeded jitter of its launch ``signature``. For every point of
the pruned space they must equal what ``build_schedule(...).kernel_launch(gpu)``
gives the scalar simulator:

* the measured shared memory equals the launch's ``shared_mem_bytes``;
* the jitter-free time equals ``GPUSimulator(gpu, jitter=False).run``, and
  is ``inf`` exactly where that raises ``SharedMemoryExceeded``;
* ``space.signature(p)`` equals ``signature()`` with the same element
  types (the jitter hashes their ``repr``, so an ``np.float64`` in place of
  a ``float`` would move a measurement);
* the jittered time at seeds 0 and 1 equals ``sim.run``.

Tier-1 covers the paper chains on A100 with the DAG optimization on; set
``REPRO_TEST_FULL=1`` to add RTX 3080, the unoptimized spaces and the
``deep_only`` (Chimera) spaces.
"""

from __future__ import annotations

import itertools
import os

import numpy as np
import pytest

from repro.gpu.kernel import KernelLaunch
from repro.gpu.simulator import GPUSimulator, SharedMemoryExceeded
from repro.gpu.specs import A100, RTX3080
from repro.search.space import generate_space
from repro.tiling.schedule import build_schedule
from repro.workloads import build_workload, workload_names

CHAINS = workload_names(level="chain")

#: (id suffix, deep_only, optimize)
VARIANTS = [("opt", False, True)]
GPUS = [A100]
if os.environ.get("REPRO_TEST_FULL") == "1":
    VARIANTS += [("noopt", False, False), ("chimera", True, False)]
    GPUS.append(RTX3080)
CASES = [(name, gpu, variant) for gpu, variant in itertools.product(GPUS, VARIANTS) for name in CHAINS]

SEEDS = (0, 1)


def measurements(space) -> list[tuple]:
    """Per position: measured shared memory, the jitter-free time, the launch
    signature and its element types, and the times at ``SEEDS``."""
    exact = GPUSimulator(space.gpu, jitter=False)
    jittered = [GPUSimulator(space.gpu, seed=seed) for seed in SEEDS]
    rows = []
    for p, shm in enumerate(space.shared_memory.tolist()):
        sig = space.signature(p)
        times = [space.measure(p, sim) for sim in (exact, *jittered)]
        rows.append((shm, sig, [type(x) for x in sig], times))
    return rows


def _timed(sim: GPUSimulator, kernel) -> float:
    try:
        return sim.run(kernel)
    except SharedMemoryExceeded:
        return float("inf")


@pytest.mark.parametrize(
    "name,gpu,variant",
    CASES,
    ids=[f"{n}-{g.name}-{v[0]}" for n, g, v in CASES],
)
def test_every_candidate_launches_like_its_schedule(name, gpu, variant):
    label, deep_only, optimize = variant
    chain = build_workload(name)
    space = generate_space(chain, gpu, deep_only=deep_only, optimize_schedules=optimize)
    sims = [GPUSimulator(gpu, jitter=False), *(GPUSimulator(gpu, seed=seed) for seed in SEEDS)]
    got = measurements(space)
    assert got
    for p, (cand, (shm, sig, types, times)) in enumerate(zip(space.candidates, got)):
        where = f"{name} {gpu.name} {label} {cand.describe()}"
        launch = build_schedule(chain, cand.expr, cand.tile_dict, optimize=optimize)
        launch = launch.kernel_launch(gpu)
        assert shm == launch.shared_mem_bytes, where
        assert sig == launch.signature(), where
        assert types == [type(x) for x in launch.signature()], where
        assert times == [_timed(sim, launch) for sim in sims], where
        assert type(times[0]) is float, where
    # Measuring built nothing beyond the templates.
    assert space.schedules_built == space.templates


@pytest.mark.parametrize("tile_m,tile_n", [(48, 7136), (80, 5776), (15, 3856)])
def test_array_simulator_takes_square_roots_like_time_kernel(tile_m, tile_n):
    """At these MMA tiles numpy's square root of the register-pressure
    ratio rounds unlike Python's ``** 0.5``, which ``time_kernel`` uses;
    the array twin must still match it bit for bit."""
    launch = KernelLaunch(
        name="spill", grid=300, flops=4e10, dram_read_bytes=3e7, dram_write_bytes=1e6,
        shared_mem_bytes=40_000, tile_m=tile_m, tile_n=tile_n, tile_k=32,
        inner_contig_bytes=96, dram_compulsory_read_bytes=2e7,
    )
    sim = GPUSimulator(A100, jitter=False)
    fields = ("grid", "flops", "dram_read_bytes", "dram_write_bytes", "shared_mem_bytes",
              "tile_m", "tile_n", "tile_k", "inner_contig_bytes")
    arrays = [np.array([getattr(launch, f)]) for f in fields]
    assert sim.exact_times(*arrays, 2e7).tolist() == [sim.run(launch)]
