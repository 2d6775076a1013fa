"""Differential test: template pricing == building every schedule.

The search prices a chain's whole Rule-3 grid, under every surviving
expression, in one array pass over the term tables of its schedule
templates (:func:`~repro.search.engine.pipeline.price_grid`) instead of
building a :class:`~repro.tiling.schedule.Schedule` for each point. With
every row requested, the priced validity, candidate-level Rule 2, Rule 4,
work totals and eq. 2-5 estimate of every point, rejected ones included,
must equal what the built schedule reports — exactly (``==``), not
approximately, because ranking order and evolutionary fitness weights
depend on the exact values.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dag_gen import pattern_graph, random_graph
from repro.frontend.partition import partition_graph
from repro.gpu.specs import A100, RTX3080
from repro.ir.chain import ComputeChain, gemm_chain
from repro.search.engine.pipeline import price_grid, surviving_expressions
from repro.search.perf_model import (
    AnalyticalModel,
    ChimeraModel,
    PerfEstimate,
    combine,
    estimate_time,
)
from repro.search.pruning import rule3_tile_options, rule4_fits, rule4_ok
from repro.search.space import generate_space
from repro.tiling.schedule import build_schedule
from repro.workloads import build_workload, workload_names


def _options(chain: ComputeChain) -> dict[str, list[int]]:
    return {loop: rule3_tile_options(size) for loop, size in chain.loops.items()}


def assert_priced_like_built(
    chain: ComputeChain,
    gpu=A100,
    optimize: bool = True,
    deep_only: bool = False,
    options: dict[str, list[int]] | None = None,
    max_exprs: int | None = None,
) -> int:
    """Price every grid point of the pipeline expressions of ``chain`` (the
    first ``max_exprs``, if given) in one pass, every row requested, and
    compare each against its built schedule; returns the points checked."""
    model = AnalyticalModel(gpu) if optimize else ChimeraModel(gpu)
    options = options or _options(chain)
    exprs, _ = surviving_expressions(chain, deep_only=deep_only)
    exprs = exprs[:max_exprs]
    grid = price_grid(chain, exprs, options, optimize)
    rows = np.arange(len(grid))
    work = grid.work(rows)
    rule4 = rule4_fits(grid.shm_estimate(rows), gpu)
    price = combine(work.read_bytes, work.write_bytes, work.flops, work.grid, gpu)
    t_mem, t_comp, alpha = (a.tolist() for a in (price.t_mem, price.t_comp, price.alpha))
    totals = zip(*(a.tolist() for a in (
        work.read_bytes, work.write_bytes, work.flops, work.grid, work.shm_estimate
    )))
    for r, total in zip(rows.tolist(), totals):
        tiles = dict(zip(chain.loop_names, grid.tiles[r % len(grid.tiles)].tolist()))
        sched = build_schedule(chain, exprs[r // len(grid.tiles)], tiles, optimize=optimize)
        where = f"{chain.name} {sched.describe()} optimize={optimize}"
        assert bool(grid.valid[r]) == sched.is_valid, where
        assert bool(grid.rule2[r]) == sched.single_live_copies(), where
        assert bool(rule4[r]) == rule4_ok(sched, gpu), where
        assert total == (
            sched.dram_read_bytes(), sched.dram_write_bytes(), sched.total_flops(),
            sched.grid_size, sched.shm_estimate(),
        ), where
        est = estimate_time(sched, gpu)
        priced = PerfEstimate(t_mem=t_mem[r], t_comp=t_comp[r], alpha=alpha[r])
        assert priced == est, where
        assert model.objective(priced) == model(sched), where
    # One template prices each distinct extent-1 set, far fewer than points.
    assert 0 < len(grid.templates) <= len(rows)
    return len(rows)


@pytest.mark.parametrize("name", workload_names(level="chain"))
def test_paper_chains(name):
    assert assert_priced_like_built(build_workload(name)) > 0


@pytest.mark.parametrize("name", ["G3", "S4"])
def test_other_gpu(name):
    """Rule 4 and eq. (5) read the GPU; the templates do not."""
    assert assert_priced_like_built(build_workload(name), gpu=RTX3080) > 0


@pytest.mark.parametrize("name", ["G1", "G7", "G12", "S1", "S5", "S9"])
def test_chimera_variant(name):
    """``optimize=False`` over Chimera's deep-only space, ranked by the
    data-movement-only objective."""
    chain = build_workload(name)
    assert assert_priced_like_built(chain, optimize=False, deep_only=True) > 0


def _zoo_chains() -> list[ComputeChain]:
    chains = []
    for name in workload_names(level="model"):
        for sg in partition_graph(build_workload(name), A100).subgraphs:
            chains.append(sg.chain)
    return chains


@pytest.mark.parametrize("chain", _zoo_chains(), ids=lambda c: c.name)
def test_zoo_fusion_groups(chain):
    assert assert_priced_like_built(chain) > 0


@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    seed=st.integers(0, 2**16),
    make=st.sampled_from([pattern_graph, random_graph]),
    optimize=st.booleans(),
)
def test_random_dag_chains(seed, make, optimize):
    graph = make(seed)
    for sg in partition_graph(graph, A100).subgraphs:
        # Five-loop chains have large grids; a few expressions per chain
        # keep an example fast.
        assert_priced_like_built(sg.chain, optimize=optimize, max_exprs=4)


def test_huge_extents_stay_exact():
    """Products past int64 switch to exact Python integers."""
    chain = gemm_chain(4096, 1 << 16, 1 << 16, 1 << 16, 1 << 16, name="huge")
    options = {loop: [16, 1 << 16] for loop in chain.loop_names}
    exprs, _ = surviving_expressions(chain)
    assert price_grid(chain, exprs, options).tile_products.dtype == object
    assert assert_priced_like_built(chain, options=options) > 0


def test_huge_odd_extents_add_in_statement_order():
    """Past 2**53 float totals round, so the order of their terms shows;
    the pricer adds them in statement order, as the schedule does."""
    chain = gemm_chain(
        3**19, 3 * 7 * 11 * 13 * 17 * 19, 5 * 7 * 11 * 13 * 23, 3 * 5 * 7 * 29 * 31,
        3 * 11 * 13 * 37, name="huge-odd",
    )
    exprs, _ = surviving_expressions(chain)
    (expr,) = [e for e in exprs if e.render() == "mn(k,h)"]
    sched = build_schedule(chain, expr, {loop: 176 for loop in chain.loop_names})
    loads = [sched.statement_bytes(s) for s in sched.statements() if s.kind == "load"]
    assert sum(loads[::-1], 0.0) != sched.dram_read_bytes()
    options = {loop: [48, 112, 176] for loop in chain.loop_names}
    assert assert_priced_like_built(chain, options=options) > 0


def test_space_prices_match_built_schedules():
    chain = build_workload("S3")
    space = generate_space(chain, A100)
    prices = space.prices
    totals = prices.total
    for p in range(0, len(space), 5):
        want = estimate_time(space.schedule_for(space.candidate(p)), A100)
        got = (prices.t_mem[p], prices.t_comp[p], prices.alpha[p])
        assert got == (want.t_mem, want.t_comp, want.alpha)
        assert totals[p] == want.total
