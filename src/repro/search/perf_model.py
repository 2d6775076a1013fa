"""MCFuser's analytical performance model (§IV-A, eqs. 2-5).

The estimated execution time of a scheduled candidate is

    t_estm = (t_mem + t_comp) * alpha                         (2)
    t_mem  = sum_S  TS_S * prod(trip counts) / W              (3)
    t_comp = sum_C  Fp_C * prod(trip counts) / P              (4)
    alpha  = (N_block + N_SM) / N_block                       (5)

with ``W`` the DRAM bandwidth, ``P`` the peak throughput, ``N_block`` the
grid size and ``N_SM`` the SM count. The model deliberately ignores
tile-shape efficiency, coalescing, codegen quality and wave quantization —
that is what the GPU simulator adds on top — so estimated and measured
times correlate strongly but imperfectly (Fig. 11).

:func:`combine` evaluates eqs. (2)-(5) from a schedule's work totals and
works on floats and numpy arrays alike. The tuner prices candidates from
schedule templates through it (:mod:`repro.search.engine.pipeline`);
:func:`estimate_time` applies it to one built :class:`Schedule` and is the
reference oracle the priced path must match bit for bit.

The Chimera variant (used by the MCFuser-Chimera baseline) minimizes data
movement only: it drops the compute term and the slowdown factor, which is
exactly the blind spot the paper calls out ("neglecting the computational
redundancy, it often arrives at sub-optimal scheduling decisions").
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.gpu.specs import GPUSpec
from repro.tiling.schedule import Schedule

__all__ = [
    "PerfEstimate",
    "combine",
    "estimate_time",
    "AnalyticalModel",
    "ChimeraModel",
]


@dataclass(frozen=True)
class PerfEstimate:
    """Breakdown of one analytical estimate (seconds; floats or arrays)."""

    t_mem: float
    t_comp: float
    alpha: float

    @property
    def total(self) -> float:
        return (self.t_mem + self.t_comp) * self.alpha


def combine(read_bytes, write_bytes, flops, grid, gpu: GPUSpec) -> PerfEstimate:
    """Eqs. (2)-(5) from work totals (scalars or aligned arrays)."""
    t_mem = (read_bytes + write_bytes) / gpu.mem_bandwidth
    t_comp = flops / gpu.peak_flops
    # A degenerate schedule whose grid loops all collapse can report a
    # zero-block grid; at least one thread block always launches, so clamp
    # rather than divide by zero mid-search.
    n_block = np.maximum(grid, 1) if isinstance(grid, np.ndarray) else max(grid, 1)
    alpha = (n_block + gpu.num_sms) / n_block
    return PerfEstimate(t_mem=t_mem, t_comp=t_comp, alpha=alpha)


def estimate_time(schedule: Schedule, gpu: GPUSpec) -> PerfEstimate:
    """Evaluate eqs. (2)-(5) for one built schedule (the reference oracle)."""
    return combine(
        schedule.dram_read_bytes(),
        schedule.dram_write_bytes(),
        schedule.total_flops(),
        schedule.grid_size,
        gpu,
    )


class AnalyticalModel:
    """The eq. 2-5 objective. The search ranks with :meth:`objective` over
    a space's price arrays; calling the model on one built schedule
    (schedule -> seconds) is the scalar reference."""

    name = "mcfuser"

    def __init__(self, gpu: GPUSpec) -> None:
        self.gpu = gpu

    def objective(self, est: PerfEstimate) -> float:
        """The quantity this model ranks by (works on array estimates)."""
        return est.total

    def __call__(self, schedule: Schedule) -> float:
        return self.objective(estimate_time(schedule, self.gpu))


class ChimeraModel(AnalyticalModel):
    """Chimera's objective: minimize data movement (parallelism-aware, but
    blind to redundant computation — the paper's criticism in §VII)."""

    name = "chimera"

    def objective(self, est: PerfEstimate) -> float:
        return est.t_mem * est.alpha
