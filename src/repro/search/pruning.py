"""The four search-space pruning guidelines of §III-C.

* **Rule 1 — Deduplication.** Spatial loops of the chain output are bound to
  ``blockIdx``; candidates sharing the residual *sub-tiling expression per
  thread block* are equivalent. 24 deep + 2 flat expressions of the GEMM
  chain collapse to a handful of classes.
* **Rule 2 — No overwhelmed intermediate buffers.** A schedule that must
  keep several partial tiles of an on-chip tensor alive (a tensor-indexing
  loop nested inside an unfinished reduction of its producer, Fig. 6(b)) is
  pruned. At the expression level, classes where an *intermediate* tensor
  generically multiplies are dropped; at the candidate level any tensor
  with ``live_copies > 1`` is dropped (which is what forces flat/attention
  candidates to keep the full ``h`` extent in one tile — exactly
  FlashAttention's design point).
* **Rule 3 — Avoid extra padding.** Tensor cores need multiples-of-16
  tiles; power-of-two dimensions only admit divisor tiles, other
  dimensions admit tiles wasting at most 5% of the *padded* extent, and
  sub-16 dimensions admit their exact (waste-free) divisors.
* **Rule 4 — Shared-memory limit.** Candidates whose eq. (1) estimate
  exceeds ``1.2 x Shm_max`` are pruned; the 1.2 slack absorbs estimation
  error (validated in Fig. 10).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.gpu.specs import GPUSpec
from repro.ir.chain import ComputeChain
from repro.tiling.enumeration import all_tilings, bindable_spatial_loops, sub_tiling_expr
from repro.tiling.expr import LoopNest, TilingExpr
from repro.tiling.schedule import Schedule, build_schedule
from repro.utils import ceil_div

__all__ = [
    "PruningStats",
    "RULE4_SLACK",
    "PADDING_RATIO_LIMIT",
    "MIN_TILE",
    "expression_classes",
    "rule2_class_survives",
    "rule2_probe_applies",
    "padding_ratio",
    "rule3_tile_options",
    "unconstrained_tile_count",
    "rule4_fits",
    "rule4_ok",
]

#: Rule 4's empirical slack over the hardware shared-memory limit.
RULE4_SLACK = 1.2

#: Rule 3's padding-waste tolerance for non-power-of-two dimensions.
PADDING_RATIO_LIMIT = 0.05

#: Tensor cores require 16x16x16 fragments; all tiles are multiples of 16.
MIN_TILE = 16


@dataclass(frozen=True)
class PruningStats:
    """Candidate counts along the pruning funnel (Fig. 7).

    ``original`` and ``after_rule1/2`` are analytic counts (the full space
    is never materialized — it has ~1e8 members for the paper's example);
    ``after_rule3/4`` count actually enumerated candidates.
    """

    expressions: int
    classes_rule1: int
    classes_rule2: int
    original: int
    after_rule1: int
    after_rule2: int
    after_rule3: int
    after_rule4: int

    def funnel(self) -> list[tuple[str, int]]:
        return [
            ("original", self.original),
            ("+ rule 1", self.after_rule1),
            ("+ rule 2", self.after_rule2),
            ("+ rule 3", self.after_rule3),
            ("+ rule 4", self.after_rule4),
        ]


# -- Rule 1 -------------------------------------------------------------------


def _canonical_representative(chain: ComputeChain, member: TilingExpr) -> TilingExpr:
    """Rebuild a class's canonical expression: bound spatial loops (in chain
    order) wrapping the residual sub-expression."""
    bound = bindable_spatial_loops(chain, member)
    residual = member.without(set(bound))
    roots = residual.roots
    for loop in reversed(bound):
        roots = (LoopNest(loop, roots),)
    return TilingExpr(roots=roots)


def expression_classes(chain: ComputeChain) -> dict[str, TilingExpr]:
    """Rule 1: map residual sub-expression -> canonical representative."""
    classes: dict[str, TilingExpr] = {}
    for expr in all_tilings(chain):
        key = sub_tiling_expr(chain, expr).render()
        if key not in classes:
            classes[key] = _canonical_representative(chain, expr)
    return classes


# -- Rule 2 (expression level) -----------------------------------------------


def rule2_class_survives(chain: ComputeChain, expr: TilingExpr) -> bool:
    """Whether a class survives Rule 2 for generic (>1) loop extents.

    Build a probe schedule in which every loop has extent > 1 and check
    that no *intermediate* tensor needs multiple live partial tiles. The
    final output accumulator is exempt at this level: its multiplicity can
    be collapsed by a full-extent tile of a private loop (the candidate-
    level check enforces that).
    """
    if not rule2_probe_applies(chain):
        return True
    probe_tiles = {loop: MIN_TILE for loop in chain.loop_names}
    sched = build_schedule(chain, expr, probe_tiles, optimize=False)
    intermediates = [n for n, ref in chain.tensors.items() if ref.role == "intermediate"]
    return all(sched.live_copies(name) == 1 for name in intermediates)


def rule2_probe_applies(chain: ComputeChain) -> bool:
    """Whether the Rule-2 probe gives every loop extent > 1: with a loop
    shorter than two minimum tiles, every class survives at this level."""
    return all(size >= 2 * MIN_TILE for size in chain.loops.values())


# -- Rule 3 ---------------------------------------------------------------------


def _is_power_of_two(x: int) -> bool:
    return x > 0 and (x & (x - 1)) == 0


def unconstrained_tile_count(size: int) -> int:
    """Number of tile options before Rule 3: all multiples of 16 up to the
    dimension size (``ceil(size/16)`` — the paper's 1e8 space accounting)."""
    return ceil_div(size, MIN_TILE)


def padding_ratio(size: int, tile: int) -> float:
    """Rule 3's padding-waste ratio: wasted cells over the *padded* extent.

    The paper measures waste against the extent actually materialized
    (``ceil(size/tile) * tile``), not the logical dimension — a dimension of
    size 100 padded to 112 wastes 12/112 of the padded tensor, which is the
    fraction of tensor-core work (and shared-memory footprint) thrown away.
    Normalizing by ``size`` instead overstates waste and, for sub-16 sizes,
    diverges as the dimension shrinks.
    """
    padded = ceil_div(size, tile) * tile
    return (padded - size) / padded


def rule3_tile_options(size: int) -> list[int]:
    """Tile sizes surviving Rule 3 for one dimension.

    Power-of-two sizes admit only divisors (zero waste, boundary-exact);
    other sizes admit multiples of 16 whose :func:`padding_ratio` does not
    exceed 5% — the boundary is inclusive, so exact multiples of 16 (ratio
    exactly 0) and tiles landing exactly on the limit both survive. Sizes
    below the 16-element hardware minimum admit their exact divisors
    (waste-free: GQA group counts and LoRA ranks tile without padding)
    rather than a single padded tile of 16.
    """
    if size < MIN_TILE:
        return [t for t in range(1, size + 1) if size % t == 0]
    options: list[int] = []
    for tile in range(MIN_TILE, size + 1, MIN_TILE):
        if _is_power_of_two(size):
            if size % tile == 0:
                options.append(tile)
        else:
            if padding_ratio(size, tile) <= PADDING_RATIO_LIMIT:
                options.append(tile)
    if not options:  # always allow the single full-dimension (padded) tile
        options.append(ceil_div(size, MIN_TILE) * MIN_TILE)
    return options


# -- Rule 4 --------------------------------------------------------------------------


def rule4_fits(shm_estimate, gpu: GPUSpec):
    """Rule 4 on eq. (1) estimates (an int, or an array of them)."""
    return shm_estimate <= RULE4_SLACK * gpu.shared_mem_per_block


def rule4_ok(schedule: Schedule, gpu: GPUSpec) -> bool:
    """Rule 4: eq. (1) estimate must stay below ``1.2 x Shm_max``."""
    return rule4_fits(schedule.shm_estimate(), gpu)
