"""GPU hardware descriptions used by the simulator and the performance model.

The paper evaluates on an NVIDIA A100-PCIe-40GB and a GeForce RTX 3080; we
model both with datasheet numbers. ``peak_flops`` is the half-precision
tensor-core peak, ``mem_bandwidth`` the theoretical DRAM bandwidth — the
ratio ``P/W`` is what classifies an operator as memory-bound
compute-intensive (MBCI) in the paper (Fig. 2).
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, replace

__all__ = ["GPUSpec", "A100", "RTX3080", "GENERIC", "by_name"]


@dataclass(frozen=True)
class GPUSpec:
    """Static description of a GPU used for simulation.

    Attributes:
        name: Marketing name, used in reports.
        arch: Compute-capability string (``sm80``, ``sm86`` ...). Baselines
            use this for support checks (e.g. BOLT rejects ``sm86``).
        num_sms: Number of streaming multiprocessors.
        peak_flops: Peak half-precision tensor-core throughput (FLOP/s).
        mem_bandwidth: Theoretical DRAM bandwidth (bytes/s).
        shared_mem_per_block: Maximum dynamic shared memory one thread block
            may allocate (bytes), including opt-in carveout ("Shm_max" in
            the paper's Rule 4 and Fig. 10).
        shared_mem_per_sm: Shared memory capacity of one SM (bytes); bounds
            occupancy when several blocks are resident.
        register_file_per_sm: Register file size per SM (bytes). Accumulator
            tiles that fit in registers do not consume shared memory in the
            *measured* allocation (see :mod:`repro.gpu.memory`).
        max_blocks_per_sm: Hardware scheduling limit on resident blocks.
        kernel_launch_overhead: Host-side launch latency per kernel (s).
        dram_latency: Fixed latency component per kernel wave (s).
    """

    name: str
    arch: str
    num_sms: int
    peak_flops: float
    mem_bandwidth: float
    shared_mem_per_block: int
    shared_mem_per_sm: int
    register_file_per_sm: int = 256 * 1024
    max_blocks_per_sm: int = 16
    l2_bytes: int = 4 * 1024 * 1024
    kernel_launch_overhead: float = 4.0e-6
    dram_latency: float = 1.5e-6

    def __post_init__(self) -> None:
        if self.num_sms <= 0:
            raise ValueError("num_sms must be positive")
        if self.peak_flops <= 0 or self.mem_bandwidth <= 0:
            raise ValueError("peak_flops and mem_bandwidth must be positive")
        if self.shared_mem_per_block > self.shared_mem_per_sm:
            raise ValueError("per-block shared memory cannot exceed per-SM capacity")
        # Memo keys hold the spec and are hashed per request: hash it once.
        object.__setattr__(self, "_hash", hash(astuple(self)))

    def __hash__(self) -> int:
        return self._hash

    @property
    def flops_per_byte(self) -> float:
        """The roofline ridge point ``P/W`` (operations per byte).

        A kernel whose compute/memory ratio ``phi`` falls below this value is
        memory-bound on this GPU — the MBCI criterion of the paper (§II-A).
        """
        return self.peak_flops / self.mem_bandwidth

    def with_overrides(self, **kwargs: object) -> "GPUSpec":
        """Return a copy with some fields replaced (test helper)."""
        return replace(self, **kwargs)  # type: ignore[arg-type]


#: NVIDIA A100-PCIe-40GB (sm80): 108 SMs, 312 TFLOP/s FP16 tensor core,
#: 1555 GB/s HBM2, 164 KiB shared memory per SM (163 KiB usable per block).
A100 = GPUSpec(
    name="A100",
    arch="sm80",
    num_sms=108,
    peak_flops=312e12,
    mem_bandwidth=1555e9,
    shared_mem_per_block=163 * 1024,
    shared_mem_per_sm=164 * 1024,
    l2_bytes=40 * 1024 * 1024,
)

#: GeForce RTX 3080 (sm86, GA102): 68 SMs, 119 TFLOP/s FP16 tensor core,
#: 760 GB/s GDDR6X, 100 KiB shared memory per SM (99 KiB usable per block).
RTX3080 = GPUSpec(
    name="RTX3080",
    arch="sm86",
    num_sms=68,
    peak_flops=119e12,
    mem_bandwidth=760e9,
    shared_mem_per_block=99 * 1024,
    shared_mem_per_sm=100 * 1024,
    l2_bytes=5 * 1024 * 1024,
)

#: A small fictional GPU used by unit tests to exercise occupancy edge cases.
GENERIC = GPUSpec(
    name="GENERIC",
    arch="sm00",
    num_sms=4,
    peak_flops=1e12,
    mem_bandwidth=100e9,
    shared_mem_per_block=48 * 1024,
    shared_mem_per_sm=64 * 1024,
)

_REGISTRY = {spec.name.lower(): spec for spec in (A100, RTX3080, GENERIC)}


def by_name(name: str) -> GPUSpec:
    """Look up a built-in GPU spec by (case-insensitive) name."""
    try:
        return _REGISTRY[name.lower()]
    except KeyError:
        raise KeyError(
            f"unknown GPU {name!r}; known: {sorted(_REGISTRY)}"
        ) from None
