"""Shared-memory *measurement*: what the backend actually allocates.

The paper prunes candidates with the simple analytic estimate of eq. (1)
(sum of tile footprints) but validates against the allocation reported by
the NVPTX backend (Fig. 10). The two differ in both directions:

* the backend **adds** memory the estimate does not know about — double
  buffering for software pipelining of operand tiles, bank-conflict skew
  padding, fp32 staging of spilled accumulators, a static reserve;
* the backend **removes** memory the estimate over-counts — accumulator
  tiles small enough to live in the register file never touch shared
  memory.

This module is that backend. It consumes a neutral list of
:class:`TileBuffer` records (produced by :mod:`repro.tiling.schedule`) so it
can stay a leaf dependency.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.gpu.specs import GPUSpec

__all__ = [
    "TileBuffer",
    "SharedMemoryReport",
    "measure_shared_memory",
    "measured_bytes",
    "estimate_shared_memory",
    "STATIC_RESERVE_BYTES",
    "ACCUM_BYTES",
]

#: Driver/static shared-memory reserve per block (bytes).
STATIC_RESERVE_BYTES = 1024

#: Accumulators are kept in fp32 regardless of the storage dtype.
ACCUM_BYTES = 4


@dataclass(frozen=True)
class TileBuffer:
    """One logical tile that a fused kernel keeps on-chip.

    Attributes:
        tensor: Tensor name (for reporting).
        rows/cols: Tile shape (elements). ``rows`` is the slower dimension.
        dtype_bytes: Element size of the stored tile.
        role: ``"operand"`` (loaded from DRAM), ``"stage"`` (intermediate
            produced and consumed on-chip), or ``"accumulator"`` (running
            reduction output).
        double_buffered: Operand tiles loaded inside a reduction loop are
            pipelined and need two copies.
        copies: Number of live tiles (>1 when a schedule keeps several
            partial tiles alive — the situation Rule 2 prunes).
    """

    tensor: str
    rows: int
    cols: int
    dtype_bytes: int = 2
    role: str = "operand"
    double_buffered: bool = False
    copies: int = 1

    def __post_init__(self) -> None:
        if self.rows <= 0 or self.cols <= 0:
            raise ValueError(f"tile {self.tensor!r}: non-positive shape")
        if self.role not in ("operand", "stage", "accumulator"):
            raise ValueError(f"tile {self.tensor!r}: bad role {self.role!r}")
        if self.copies < 1:
            raise ValueError(f"tile {self.tensor!r}: copies must be >= 1")

    @property
    def elements(self) -> int:
        return self.rows * self.cols * self.copies


@dataclass(frozen=True)
class SharedMemoryReport:
    """Result of measuring a candidate's shared-memory footprint."""

    total_bytes: int
    per_buffer: tuple[tuple[str, int], ...]
    register_resident: tuple[str, ...]

    def fits(self, gpu: GPUSpec) -> bool:
        """True when the allocation fits in one block's shared memory."""
        return self.total_bytes <= gpu.shared_mem_per_block


def estimate_shared_memory(buffers: list[TileBuffer]) -> int:
    """The paper's eq. (1): sum of tile footprints at storage precision.

    Deliberately naive — no double buffering, no padding, no register
    allocation, single copy per tensor. Rule 4 compares this against
    ``1.2 * Shm_max``.
    """
    return sum(b.rows * b.cols * b.dtype_bytes for b in buffers)


def _skew_padding(cols, dtype_bytes):
    """Bank-conflict skew: pad rows whose pitch is a multiple of 128B
    (ints, or int arrays elementwise).

    Shared memory has 32 banks x 4B; a power-of-two row pitch makes column
    accesses hit one bank, so backends add an 8-element skew.
    """
    return 8 * ((cols * dtype_bytes) % 128 == 0)


def _fits_in_registers(elements, gpu: GPUSpec):
    """Whether an accumulator tile of ``elements`` (an int, or an int array
    elementwise) can live entirely in the register file.

    We budget half the SM register file for accumulators of a single block
    (the other half holds operand fragments and address arithmetic).
    """
    return elements * ACCUM_BYTES <= gpu.register_file_per_sm // 2


def measure_shared_memory(buffers: list[TileBuffer], gpu: GPUSpec) -> SharedMemoryReport:
    """Compute the allocation the backend would actually make.

    Rules applied, in order:

    1. accumulator tiles that fit the register budget are *removed* from
       shared memory (reported in ``register_resident``);
    2. spilled accumulators are staged in fp32 (``ACCUM_BYTES``);
    3. operand tiles flagged ``double_buffered`` are doubled;
    4. every buffer's row pitch gets bank-conflict skew padding;
    5. a static reserve is added once.
    """
    per_buffer: list[tuple[str, int]] = []
    in_registers: list[str] = []
    total = STATIC_RESERVE_BYTES
    for buf in buffers:
        if buf.role == "accumulator" and _fits_in_registers(buf.elements, gpu):
            in_registers.append(buf.tensor)
            continue
        dtype_bytes = ACCUM_BYTES if buf.role == "accumulator" else buf.dtype_bytes
        cols = buf.cols + _skew_padding(buf.cols, dtype_bytes)
        nbytes = buf.rows * cols * dtype_bytes * buf.copies
        if buf.double_buffered and buf.role == "operand":
            nbytes *= 2
        per_buffer.append((buf.tensor, nbytes))
        total += nbytes
    return SharedMemoryReport(
        total_bytes=total,
        per_buffer=tuple(per_buffer),
        register_resident=tuple(in_registers),
    )


def measured_bytes(rows, cols, copies, accumulator, double_buffered, dtype_bytes: int, gpu: GPUSpec):
    """:func:`measure_shared_memory`'s ``total_bytes`` of many buffer lists:
    arguments have one row per buffer, one column per list (int shapes and
    copies, bool roles; ``double_buffered`` only on operands)."""
    in_registers = accumulator & _fits_in_registers(rows * cols * copies, gpu)
    elem = np.where(accumulator, ACCUM_BYTES, dtype_bytes)
    nbytes = rows * (cols + _skew_padding(cols, elem)) * elem * copies
    nbytes = nbytes * np.where(double_buffered, 2, 1)
    return STATIC_RESERVE_BYTES + np.where(in_registers, 0, nbytes).sum(axis=0)
