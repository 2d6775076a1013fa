"""GPU substrate: hardware specs, occupancy, shared-memory backend, simulator.

This package replaces the paper's physical A100 / RTX 3080 testbed with a
seeded analytic simulator (see docs/architecture.md). Everything above it
interacts with "hardware" exclusively through
:class:`~repro.gpu.kernel.KernelLaunch` and
:class:`~repro.gpu.simulator.GPUSimulator`.
"""

from repro.gpu.kernel import CODEGEN_QUALITY, CodegenQuality, KernelLaunch
from repro.gpu.memory import (
    SharedMemoryReport,
    TileBuffer,
    estimate_shared_memory,
    measure_shared_memory,
)
from repro.gpu.occupancy import Occupancy, SharedMemoryExceeded, occupancy_for
from repro.gpu.simulator import GPUSimulator, KernelTiming, compute_efficiency, memory_efficiency
from repro.gpu.specs import A100, GENERIC, RTX3080, GPUSpec, by_name

__all__ = [
    "A100",
    "RTX3080",
    "GENERIC",
    "GPUSpec",
    "by_name",
    "KernelLaunch",
    "CodegenQuality",
    "CODEGEN_QUALITY",
    "GPUSimulator",
    "KernelTiming",
    "compute_efficiency",
    "memory_efficiency",
    "Occupancy",
    "occupancy_for",
    "SharedMemoryExceeded",
    "TileBuffer",
    "SharedMemoryReport",
    "estimate_shared_memory",
    "measure_shared_memory",
]
