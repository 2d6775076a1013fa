"""Differential test: memoized template cores == templates built at the shape.

:func:`~repro.search.engine.pipeline.build_space` memoizes template cores
and surviving expressions on a chain's size-free structure: a template
holds no loop size, batch or dtype, so the core built at one shape prices
every other shape of that structure. Each case warms the memos with the
other shapes of its chain's structure, then prices and measures the chain
from the warm memos. Every grid point's validity, Rule 2, eq. (1) estimate
and work totals, every template (its term and launch tables too) and every
kept point's measurements (shared memory, times and launch ``signature``
with its element types) must equal what the same chain gets from empty
memos, where every template is
``ScheduleTemplate.from_schedule(build_schedule(...))`` at the chain's own
shape.

Tier-1 covers the paper chains on A100 with the MCFuser space, plus chains
with loops shorter than two minimum tiles (Rule 2's probe does not apply to
them). Set ``REPRO_TEST_FULL=1`` to add RTX 3080, the Chimera space and the
fusion groups of bert-small.
"""

from __future__ import annotations

import dataclasses
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
from repro.tiling.schedule import ScheduleTemplate, ScheduleWork
from repro.utils import clear_memos
from repro.workloads import build_workload, workload_names
from conftest import empty_space
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


def _options(chain: ComputeChain) -> dict[str, list[int]]:
    return {loop: rule3_tile_options(size) for loop, size in chain.loops.items()}


def _priced(chain, gpu, deep_only, optimize, sources=(), exprs=None, options=None):
    """Price every grid point of ``chain`` (under ``exprs``, default the
    surviving expressions, and ``options``, default Rule 3's) and build its
    space, each from memos warmed by ``sources`` alone. Returns the priced
    grid and the space."""

    def warm():
        clear_memos()
        for source in sources:
            build_space(source, gpu, deep_only=deep_only, optimize_schedules=optimize)

    warm()
    if exprs is None:
        exprs, _ = surviving_expressions(chain, deep_only=deep_only)
    grid = price_grid(chain, exprs, options or _options(chain), optimize)
    warm()
    space = build_space(chain, gpu, deep_only=deep_only, optimize_schedules=optimize)
    return grid, space


def assert_same_grid(got, want, where: str) -> None:
    """Same templates (term and launch tables included) and, at every row,
    the same template, validity, Rule 2, eq. (1) estimate and work totals,
    element types included."""
    assert got.templates == want.templates, where
    for a, b in zip(got.templates, want.templates):
        assert np.array_equal(a.work_masks, b.work_masks), where
        assert a.grid_mask == b.grid_mask, where
        assert all(np.array_equal(x, y) for x, y in zip(a.tables, b.tables)), where
    for field in ("tiles", "template", "valid", "rule2"):
        assert np.array_equal(getattr(got, field), getattr(want, field)), (where, field)
    rows = np.arange(len(want))
    got_work, want_work = got.work(rows), want.work(rows)
    for field in dataclasses.fields(ScheduleWork):
        x, y = getattr(got_work, field.name), getattr(want_work, field.name)
        assert x.dtype == y.dtype and np.array_equal(x, y), (where, field.name)
    assert np.array_equal(got.shm_estimate(rows), want_work.shm_estimate), where


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
    cold_grid, cold = _priced(chain, gpu, deep_only, optimize)
    grid, space = _priced(chain, gpu, deep_only, optimize, _sources(chain))
    assert cold_grid.bound == cold.templates_bound == 0, where
    # The check binds something: cores built at other shapes price points here.
    assert grid.bound > 0 and space.templates_bound > 0, where
    assert_same_grid(grid, cold_grid, where)
    assert_same_space(space, cold, where)


def test_cores_and_their_tables_are_built_once_per_structure(monkeypatch):
    """A core, with its term and launch tables, is built once and then is
    the template of every chain of its structure: the tables are shared,
    not rebuilt or copied."""
    built = []
    real = ScheduleTemplate.from_schedule.__func__

    def from_schedule(cls, schedule):
        built.append(schedule)
        return real(cls, schedule)

    monkeypatch.setattr(ScheduleTemplate, "from_schedule", classmethod(from_schedule))
    first = build_space(gemm_chain(1, 256, 256, 64, 64, name="shared-b1"), A100)
    assert len(built) == first.templates > 0
    second = build_space(gemm_chain(2, 256, 256, 64, 64, name="shared-b2"), A100)
    assert len(built) == first.templates == second.templates_bound
    for a, b in zip(first._points.templates, second._points.templates):
        assert a is b
        assert a.work_masks is b.work_masks and a.tables is b.tables


def test_empty_grid_prices_like_the_empty_space():
    """No expression: no template, and empty totals of the empty space's
    element types."""
    chain = build_workload("G1")
    grid = price_grid(chain, [], _options(chain))
    assert len(grid) == 0 and grid.templates == () and grid.bound == 0
    none = np.arange(0)
    work, want = grid.work(none), empty_space(build_space(chain, A100)).work
    for field in dataclasses.fields(ScheduleWork):
        x, y = getattr(work, field.name), getattr(want, field.name)
        assert x.dtype == y.dtype and x.shape == y.shape == (0,), field.name
    assert grid.shm_estimate(none).dtype == np.int64


def test_no_point_survives_rule3():
    """Every point of ``mn(k,h)`` with n, k and h split keeps several partial
    tiles of C live (Rule 2), so nothing survives Rule 3; warm memos price
    it as cold ones do."""
    chain = build_workload("G1")
    exprs = [e for e in surviving_expressions(chain)[0] if e.render() == "mn(k,h)"]
    options = {**_options(chain), "n": [16, 64, 128], "k": [16, 32], "h": [16, 32]}
    cold_grid, _ = _priced(chain, A100, False, True, exprs=exprs, options=options)
    grid, _ = _priced(chain, A100, False, True, _sources(chain), exprs, options)
    assert len(cold_grid) > 0 and not (cold_grid.valid & cold_grid.rule2).any()
    assert grid.bound > 0
    assert_same_grid(grid, cold_grid, "G1 mn(k,h)")


def test_no_point_survives_rule4():
    """On a GPU with 1 KiB of shared memory per block every point fails
    Rule 4: the space is empty, and warm memos build it as cold ones do."""
    tiny = dataclasses.replace(A100, name="tiny-shm", shared_mem_per_block=1024)
    chain = build_workload("G1")
    cold_grid, cold = _priced(chain, tiny, False, True)
    grid, space = _priced(chain, tiny, False, True, _sources(chain))
    assert cold.stats.after_rule3 > 0 and cold.stats.after_rule4 == 0 == len(cold)
    assert space.templates_bound > 0
    assert_same_grid(grid, cold_grid, "G1 tiny-shm")
    assert_same_space(space, cold, "G1 tiny-shm")


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
