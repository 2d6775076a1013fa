"""Workload signatures: stable content hashes for the compilation cache.

A *workload signature* identifies everything that determines the outcome of
tuning: the operator chain's structure (blocks, tensors, loop extents,
dtype, batch), the target GPU's hardware description, and the tuner variant.
Two :class:`~repro.ir.chain.ComputeChain` objects with the same structure
hash identically even if they were built independently or carry different
display names — a BERT model's twelve identical attention layers share one
signature, which is what lets the cache (and the compile service's
request coalescing) tune the shape once and reuse the schedule everywhere.

Signatures are hex digests of a canonical JSON rendering, hashed with
BLAKE2b. ``repr``-based hashing is deliberately avoided: dict ordering,
float formatting, and dataclass field additions must not silently change
signatures between releases — any such change must go through
:data:`SIGNATURE_VERSION`.

This module is dependency-free within the package (chains, schedules, and
GPU specs are consumed duck-typed) so that any layer — frontend partitioner,
codegen runtime, search tuner — can import it without cycles. The exact and
bucketed digests are memoized per process on a chain's ``structure_key()``
and the (hashable, frozen) GPU spec; the digests themselves do not depend
on the memo.
"""

from __future__ import annotations

import hashlib
import json
from functools import lru_cache

from repro.utils import process_memo

__all__ = [
    "SIGNATURE_VERSION",
    "DEFAULT_STRATEGY",
    "DEFAULT_DYNAMIC_LOOPS",
    "BUCKET_MIN",
    "variant_key",
    "bucket_of",
    "bucket_dims",
    "chain_fingerprint",
    "gpu_fingerprint",
    "workload_signature",
    "bucketed_signature",
    "schedule_signature",
]

#: The search strategy whose results the bare variant key refers to.
DEFAULT_STRATEGY = "evolutionary"


def variant_key(
    variant: str, strategy: str = DEFAULT_STRATEGY, measure_topk: int = 0
) -> str:
    """Compose the cache variant key from tuner variant, search strategy,
    and cost-model guidance.

    The default (evolutionary) strategy keeps the bare variant string, so
    caches written before pluggable strategies existed keep hitting; any
    other strategy is suffixed (``"mcfuser+random"``) — entries found by
    one strategy are never served to a tuner running another. Cost-model-
    guided tunes (``measure_topk > 0``) carry an additional ``+topk{k}``
    suffix: a schedule chosen from k measurements per round is weaker
    evidence than an exhaustively measured one and must never be silently
    served as such (nor vice versa).
    """
    key = variant if strategy == DEFAULT_STRATEGY else f"{variant}+{strategy}"
    if measure_topk > 0:
        key = f"{key}+topk{measure_topk}"
    return key

#: Bump whenever the fingerprint layout changes; old cache entries keyed by
#: a previous version can then never alias new ones.
SIGNATURE_VERSION = 1

#: Loops treated as dynamic by default under shape bucketing: the sequence-
#: length dims of the Table II/III convention (``m`` = query/token length,
#: ``n`` = key/value length). Head dims (``k``, ``h``) and hidden dims stay
#: static — production ragged traffic varies sequence length, not model
#: architecture.
DEFAULT_DYNAMIC_LOOPS = ("m", "n")

#: Smallest bucket ceiling. Matches the tensor-core minimum tile: every
#: bucket ceiling is a multiple of 16, so ceiling-tuned tiles stay
#: hardware-aligned for every length in the bucket.
BUCKET_MIN = 16


def bucket_of(size: int) -> int:
    """Power-of-two bucket ceiling of one dynamic extent.

    Lengths in ``(ceiling/2, ceiling]`` share a bucket; the floor is
    :data:`BUCKET_MIN` so tiny extents land in an aligned bucket instead of
    a degenerate one. A production mix spanning lengths ``[lo, hi]``
    therefore tunes at most ``ceil(log2(hi/lo)) + 1`` times per workload
    shape family.
    """
    if size < 1:
        raise ValueError(f"dynamic extent must be >= 1, got {size}")
    ceiling = BUCKET_MIN
    while ceiling < size:
        ceiling *= 2
    return ceiling


def bucket_dims(chain, dynamic_loops=DEFAULT_DYNAMIC_LOOPS) -> dict:
    """``loop -> bucket ceiling`` for the chain's dynamic loops.

    Loops named in ``dynamic_loops`` but absent from the chain are ignored,
    so the default ``("m", "n")`` applies uniformly to GEMM chains and
    attention modules alike.
    """
    return {
        loop: bucket_of(chain.loops[loop])
        for loop in dynamic_loops
        if loop in chain.loops
    }


def _digest(payload: dict) -> str:
    """Hash a canonical JSON rendering of ``payload`` to a 32-char hex id."""
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.blake2b(blob.encode(), digest_size=16).hexdigest()


def chain_fingerprint(chain) -> dict:
    """Canonical structural description of a :class:`ComputeChain`.

    Covers everything tuning depends on — loop extents, batch, dtype, the
    block DAG (inputs/output/spatial/reduction/softmax/epilogue/scale), and
    tensor roles. Deliberately excludes ``chain.name``, which is a display
    label: identically shaped workloads must share cache entries.

    Loop and tensor *names* do participate (they define the block DAG's
    wiring), which is why the partitioner's linearizer names both
    canonically — first-use order, attention rebuilt through the Table III
    builder. Every identically shaped fusion group of a model (or of two
    different models) therefore fingerprints identically and tunes once,
    and groups matching the paper's patterns keep hitting cache entries
    written by the chain-level G*/S* workloads.
    """
    return _fingerprint(chain.structure_key())


def _fingerprint(structure: tuple) -> dict:
    """:func:`chain_fingerprint` of a chain's ``structure_key()``."""
    loops, batch, dtype, blocks, tensors = structure
    return {
        "loops": sorted(loops),
        "batch": batch,
        "dtype": dtype,
        "blocks": [
            {
                "name": b.name,
                "inputs": list(b.inputs),
                "output": b.output,
                "spatial": list(b.spatial),
                "reduction": list(b.reduction),
                "softmax_over": b.softmax_over,
                "epilogue": b.epilogue,
                "scale": float(f"{b.scale:.12g}"),
            }
            for b in blocks
        ],
        "tensors": sorted(
            (ref.name, list(ref.dims), ref.role) for _, ref in tensors
        ),
    }


def gpu_fingerprint(gpu) -> dict:
    """Canonical description of a :class:`GPUSpec`.

    Every numeric field participates: a schedule tuned for 163 KiB of shared
    memory per block is not valid evidence for a GPU with 99 KiB.
    """
    return {
        "name": gpu.name,
        "arch": gpu.arch,
        "num_sms": gpu.num_sms,
        "peak_flops": gpu.peak_flops,
        "mem_bandwidth": gpu.mem_bandwidth,
        "shared_mem_per_block": gpu.shared_mem_per_block,
        "shared_mem_per_sm": gpu.shared_mem_per_sm,
        "register_file_per_sm": gpu.register_file_per_sm,
        "max_blocks_per_sm": gpu.max_blocks_per_sm,
        "l2_bytes": gpu.l2_bytes,
        "kernel_launch_overhead": gpu.kernel_launch_overhead,
        "dram_latency": gpu.dram_latency,
    }


#: Entries of each signature memo. A key is a chain structure, a GPU spec
#: and a variant; a serving process sees a few hundred distinct shapes.
SIGNATURE_MEMO_SIZE = 4096


def workload_signature(chain, gpu, variant: str = "mcfuser") -> str:
    """Stable cache key for tuning ``chain`` on ``gpu`` under ``variant``.

    Args:
        chain: The :class:`ComputeChain` workload.
        gpu: Target :class:`GPUSpec`.
        variant: Tuner variant (``"mcfuser"`` or ``"chimera"``) — the two
            variants search different spaces, so their results must not
            alias.

    Returns:
        A 32-character hex digest, stable across processes and sessions.
        The digest is memoized per process on ``chain.structure_key()``,
        so a repeated shape costs a dict lookup, not a JSON render.
    """
    return _workload_digest(chain.structure_key(), gpu, variant)


@process_memo
@lru_cache(maxsize=SIGNATURE_MEMO_SIZE)
def _workload_digest(structure: tuple, gpu, variant: str) -> str:
    return _digest(
        {
            "version": SIGNATURE_VERSION,
            "chain": _fingerprint(structure),
            "gpu": gpu_fingerprint(gpu),
            "variant": variant,
        }
    )


def bucketed_signature(
    chain,
    gpu,
    variant: str = "mcfuser",
    dynamic_loops=DEFAULT_DYNAMIC_LOOPS,
) -> str:
    """Bucket-generic cache key: exact dynamic extents replaced by ceilings.

    Two chains that differ only in the extents of their ``dynamic_loops``
    hash identically as long as each dynamic extent falls in the same
    power-of-two bucket — a schedule tuned at the bucket ceiling serves
    every length in the bucket (tail tiles are masked at execution time).
    The payload carries an explicit ``dynamic_dims`` marker, so a bucketed
    key can never alias an exact :func:`workload_signature` (not even for a
    chain whose dynamic extents already sit at the ceiling). Memoized like
    :func:`workload_signature`.
    """
    return _bucketed_digest(
        chain.structure_key(), gpu, variant, tuple(dynamic_loops)
    )


@process_memo
@lru_cache(maxsize=SIGNATURE_MEMO_SIZE)
def _bucketed_digest(structure: tuple, gpu, variant: str, dynamic_loops: tuple) -> str:
    fingerprint = _fingerprint(structure)
    loops = dict(fingerprint["loops"])
    dyn = {
        loop: bucket_of(loops[loop]) for loop in dynamic_loops if loop in loops
    }
    loops.update(dyn)
    fingerprint["loops"] = sorted(loops.items())
    return _digest(
        {
            "version": SIGNATURE_VERSION,
            "chain": fingerprint,
            "gpu": gpu_fingerprint(gpu),
            "variant": variant,
            "dynamic_dims": sorted(dyn.items()),
        }
    )


def schedule_signature(schedule, gpu) -> str:
    """Cache key for one *compiled* schedule (kernel memoization).

    Extends the workload signature with the concrete tiling decision —
    expression, tile sizes, and whether the DAG optimization ran — so the
    codegen runtime can reuse a compiled module exactly when the fused
    kernel would be byte-identical.
    """
    return _digest(
        {
            "version": SIGNATURE_VERSION,
            "chain": chain_fingerprint(schedule.chain),
            "gpu": gpu_fingerprint(gpu),
            "expr": schedule.expr.render(),
            "tiles": sorted(schedule.tiles.items()),
            "optimized": schedule.optimized,
        }
    )
