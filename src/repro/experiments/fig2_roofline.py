"""Fig. 2: MatMul transitions from compute-bound to memory-bound as K/M
shrinks at constant total work (M*N*K = 1024^3, M = N).

For each K/M ratio the experiment reports the theoretical ops/byte ratio
``phi`` for a 256-tile (left axis of the paper's figure), the GPU ridge
point P/W, and the *measured* (simulated) throughput of the best library
kernel (right axis). The crossover — throughput tracking ``phi x W`` below
the ridge, saturating above it — is the MBCI phenomenon motivating the
whole paper.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.baselines.library import gemm_kernel
from repro.experiments.common import ExperimentResult
from repro.gpu.simulator import GPUSimulator
from repro.gpu.specs import A100, GPUSpec

__all__ = ["phi", "matmul_points", "run", "main"]


def phi(tile: int, m: int, n: int, k: int) -> float:
    """The paper's compute/memory ratio for a (tile x tile) thread block:
    ``phi = 2 TM TN K / (2 TM TN + TM K + TN K)`` (in ops per element;
    multiplied by dtype below when compared against P/W in ops/byte)."""
    tm = tn = tile
    return (2.0 * tm * tn * k) / (2.0 * tm * tn + tm * k + tn * k)


@dataclass(frozen=True)
class RooflinePoint:
    k_over_m: float
    m: int
    k: int
    phi_ops_per_byte: float
    tflops: float
    bound: str


def matmul_points(
    gpu: GPUSpec = A100,
    tile: int = 256,
    total_work: int = 1024**3,
    num_points: int = 12,
) -> list[RooflinePoint]:
    """Sweep K/M from 1 down to ~1/256 at constant M*N*K."""
    points: list[RooflinePoint] = []
    sim = GPUSimulator(gpu, jitter=False)
    ratios = [2.0 ** (-i) for i in range(num_points)]
    for r in ratios:
        # M = N, K = r*M, M^2 * K = total -> M = (total / r)^(1/3)
        m = int(round((total_work / r) ** (1.0 / 3.0) / 16) * 16)
        m = max(m, 64)
        k = max(int(round(r * m / 16) * 16), 16)
        kernel = gemm_kernel(f"roofline_m{m}k{k}", 1, m, m, k, gpu)
        timing = sim.time_kernel(kernel)
        tflops = kernel.flops / timing.total / 1e12
        ops_per_byte = phi(tile, m, m, k) / 2.0  # fp16: 2 bytes/element
        points.append(
            RooflinePoint(
                k_over_m=k / m,
                m=m,
                k=k,
                phi_ops_per_byte=ops_per_byte,
                tflops=tflops,
                bound=timing.bound,
            )
        )
    return points


def run(gpu: GPUSpec = A100, quick: bool = False) -> ExperimentResult:
    points = matmul_points(gpu, num_points=6 if quick else 12)
    ridge = gpu.flops_per_byte
    rows = [
        [
            f"{p.k_over_m:.4f}",
            p.m,
            p.k,
            f"{p.phi_ops_per_byte:.1f}",
            f"{p.tflops:.1f}",
            p.bound,
        ]
        for p in points
    ]
    # Shape checks the paper's figure makes visually, classified by the
    # simulator: a 256-tile's phi stays below the ridge across the sweep.
    high = [p.tflops for p in points if p.bound == "compute"]
    low = [p.tflops for p in points if p.bound == "memory"]
    meta = {
        "ridge_ops_per_byte(P/W)": f"{ridge:.1f}",
        "compute_bound_tflops": f"{max(high, default=0):.1f}",
        "memory_bound_tflops": f"{min(low, default=0):.1f}",
    }
    return ExperimentResult(
        name=f"Fig.2 roofline transition on {gpu.name}",
        headers=["K/M", "M=N", "K", "ops/byte(phi)", "TFLOPS", "bound"],
        rows=rows,
        meta=meta,
    )


def main() -> None:  # pragma: no cover - console entry
    run().print()


if __name__ == "__main__":  # pragma: no cover
    main()
