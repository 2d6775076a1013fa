"""Differential test: memoized template cores == templates built at the shape.

:func:`~repro.search.engine.pipeline.build_space` memoizes template cores
and surviving expressions on a chain's size-free structure, and binds a
core built at one shape to every other shape of that structure
(:meth:`~repro.tiling.schedule.ScheduleTemplate.bind`). Each case warms the
memos with the other shapes of its chain's structure, then prices and
measures the chain from the warm memos. Every grid point's price, every
template (its launch tables too) and every kept point's measurements
(shared memory, times and launch ``signature`` with its element types)
must equal what the same chain gets from empty memos, where
every template is ``ScheduleTemplate.from_schedule(build_schedule(...))``
at the chain's own shape.

Tier-1 covers the paper chains on A100 with the MCFuser space, plus chains
with loops shorter than two minimum tiles (Rule 2's probe does not apply to
them). Set ``REPRO_TEST_FULL=1`` to add RTX 3080, the Chimera space and the
fusion groups of bert-small.
"""

from __future__ import annotations

import itertools
import os
import threading

import numpy as np
import pytest

from repro.frontend.partition import partition_graph
from repro.gpu.specs import A100, RTX3080
from repro.ir.chain import ComputeChain, attention_chain, gemm_chain
from repro.search.engine.pipeline import build_space, price_grid, surviving_expressions
from repro.search.pruning import rule3_tile_options
from repro.utils import clear_memos
from repro.workloads import build_workload, workload_names
from test_template_launch import measurements

FULL = os.environ.get("REPRO_TEST_FULL") == "1"

#: Loops below 2 x MIN_TILE: n = 1, k = 16, m = 1 (GEMM and decode
#: attention), and attention at sequence length 1 and 24.
SMALL = (
    gemm_chain(1, 512, 1, 64, 64, name="small-n1"),
    gemm_chain(1, 512, 256, 16, 64, name="small-k16"),
    gemm_chain(1, 1, 256, 64, 64, name="small-m1"),
    attention_chain(8, 1, 512, 64, 64, name="decode-m1"),
    attention_chain(8, 1, 1, 64, 64, name="attention-len1"),
    attention_chain(8, 24, 24, 64, 64, name="attention-len24"),
)


def _chains() -> list[ComputeChain]:
    chains = [build_workload(name) for name in workload_names(level="chain")]
    chains += SMALL
    if FULL:
        chains += [sg.chain for sg in partition_graph(build_workload("bert-small"), A100).subgraphs]
    return chains


CHAINS = _chains()

#: (space name, deep_only, optimize): the MCFuser space and Chimera's.
VARIANTS = [("mcfuser", False, True)]
GPUS = [A100]
if FULL:
    VARIANTS.append(("chimera", True, False))
    GPUS.append(RTX3080)
CASES = list(itertools.product(range(len(CHAINS)), GPUS, VARIANTS))


def _sources(chain: ComputeChain) -> list[ComputeChain]:
    """Every other shape of ``chain``'s structure among the cases, and the
    same structure with each loop at least 64, so that Rule 2's probe
    applies to at least one source."""
    structure = chain.size_free_key()
    others = [c for c in CHAINS if c is not chain and c.size_free_key() == structure]
    large = {loop: max(2 * size, 64) for loop, size in chain.loops.items()}
    return [*others, chain.with_loops(large, name=f"{chain.name}-large")]


def _priced(chain, gpu, deep_only, optimize, sources=()):
    """Price every grid point of ``chain`` and build its space, each from
    memos warmed by ``sources`` alone. Returns the grids, the templates
    bound for them and the space."""

    def warm():
        clear_memos()
        for source in sources:
            build_space(source, gpu, deep_only=deep_only, optimize_schedules=optimize)

    warm()
    exprs, _ = surviving_expressions(chain, deep_only=deep_only)
    options = {loop: rule3_tile_options(size) for loop, size in chain.loops.items()}
    grids = [price_grid(chain, gpu, e, options, optimize) for e in exprs]
    warm()
    space = build_space(chain, gpu, deep_only=deep_only, optimize_schedules=optimize)
    return grids, sum(grid.bound for grid in grids), space


def assert_same_space(got, want, where: str) -> None:
    assert got.stats == want.stats, where
    assert [c.key for c in got.candidates] == [c.key for c in want.candidates], where
    for field in ("t_mem", "t_comp", "alpha"):
        assert np.array_equal(getattr(got.prices, field), getattr(want.prices, field)), where
    assert measurements(got) == measurements(want), where


@pytest.mark.parametrize(
    "index,gpu,variant",
    CASES,
    ids=[f"{CHAINS[i].name}-{g.name}-{v[0]}" for i, g, v in CASES],
)
def test_bound_cores_price_and_launch_like_built_templates(index, gpu, variant):
    _, deep_only, optimize = variant
    chain = CHAINS[index]
    where = f"{chain.name} {gpu.name} {variant[0]}"
    cold_grids, cold_bound, cold = _priced(chain, gpu, deep_only, optimize)
    grids, bound, space = _priced(chain, gpu, deep_only, optimize, _sources(chain))
    assert cold_bound == cold.templates_bound == 0, where
    # The check binds something: cores built at other shapes price points here.
    assert bound > 0 and space.templates_bound > 0, where
    assert len(grids) == len(cold_grids), where
    for got, want in zip(grids, cold_grids):
        assert got.templates == want.templates, where
        for a, b in zip(got.templates, want.templates):
            assert all(np.array_equal(x, y) for x, y in zip(a.tables, b.tables)), where
        for field in ("tiles", "valid", "rule2", "rule4", "group"):
            assert np.array_equal(getattr(got, field), getattr(want, field)), (where, field)
        for field in ("t_mem", "t_comp", "alpha"):
            assert np.array_equal(getattr(got.price, field), getattr(want.price, field)), where
    assert_same_space(space, cold, where)


def test_concurrent_spaces_share_the_memos():
    """Two threads build the spaces of one structure at many shapes at once,
    sharing the memos from empty; every space equals its cold build."""
    chains = [build_workload(f"G{i}") for i in range(1, 13)]
    cold = {}
    for chain in chains:
        clear_memos()
        cold[chain.name] = build_space(chain, A100)
    clear_memos()
    barrier = threading.Barrier(2)
    spaces: dict[str, object] = {}
    errors: list[BaseException] = []

    def work(order):
        try:
            barrier.wait()
            for chain in order:
                spaces[f"{chain.name}@{threading.get_ident()}"] = (chain, build_space(chain, A100))
        except BaseException as exc:  # pragma: no cover - surfaced below
            errors.append(exc)

    threads = [
        threading.Thread(target=work, args=(order,)) for order in (chains, chains[::-1])
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors
    assert len(spaces) == 2 * len(chains)
    for key, (chain, space) in spaces.items():
        assert_same_space(space, cold[chain.name], key)
