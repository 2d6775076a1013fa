"""BatchTuner: deduplicated, concurrent tuning of many workloads.

Real model graphs repeat shapes heavily — every attention layer of a BERT
is the same MBCI sub-graph. ``BatchTuner`` takes an arbitrary list of
chains, groups them by :func:`~repro.cache.signature.workload_signature`,
tunes one representative per group concurrently on a thread pool, and hands
every input chain the report of its group — so a 12-layer encoder pays for
one tuning run, not twelve. With a :class:`~repro.cache.cache.ScheduleCache`
attached, representatives that were tuned in *any* earlier process are pure
cache hits, which is how ``repro cache warmup`` pre-populates a deployment.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from repro.cache.signature import workload_signature
from repro.config import SessionConfig
from repro.gpu.specs import GPUSpec, by_name
from repro.search.tuner import MCFuserTuner, TuneReport

if TYPE_CHECKING:  # pragma: no cover
    from repro.cache.cache import ScheduleCache
    from repro.ir.chain import ComputeChain

__all__ = ["BatchResult", "BatchTuner"]

@dataclass
class BatchResult:
    """Outcome of one :meth:`BatchTuner.tune_all` call.

    Attributes:
        reports: One :class:`TuneReport` per *input* chain, aligned with the
            input order; duplicated shapes share the same report object.
        signatures: The workload signature of each input chain.
        unique: Number of distinct signatures actually scheduled.
        duplicates: Input chains that rode along on another chain's tuning.
        cache_hits: Unique signatures served from the cache (zero search).
        tuning_seconds: Total simulated tuning cost across unique tunes
            (cache hits contribute zero).
    """

    reports: list[TuneReport]
    signatures: list[str]
    unique: int
    duplicates: int
    cache_hits: int
    tuning_seconds: float


class BatchTuner:
    """Tunes a batch of chains with signature dedup and a worker pool.

    Args:
        gpu: Target hardware description, shared by the whole batch
            (``None`` resolves the spec named by ``config.gpu``).
        cache: Optional schedule cache consulted (and filled) per unique
            signature. The cache is thread-safe; one instance may be shared
            with other tuners.
        max_workers: Thread-pool width for concurrent tuning. A batch-local
            resource knob, not a tuning knob: it never affects which
            schedule a signature gets, so it lives outside the config.
        config: The :class:`~repro.config.SessionConfig` every unique
            signature is tuned under (``None`` means ``SessionConfig()``).
            Cache keys include its strategy, so warmups stay
            strategy-faithful; ``search.workers`` is the inner measurement
            parallelism of each tune, orthogonal to ``max_workers``.
    """

    def __init__(
        self,
        gpu: "GPUSpec | None" = None,
        *,
        cache: "ScheduleCache | None" = None,
        max_workers: int = 4,
        config: "SessionConfig | None" = None,
    ) -> None:
        if max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers}")
        config = config if config is not None else SessionConfig()
        self.config = config
        self.gpu = gpu if gpu is not None else by_name(config.gpu)
        self.cache = cache
        self.max_workers = max_workers

    def _tune_one(self, chain: "ComputeChain") -> TuneReport:
        tuner = MCFuserTuner(self.gpu, cache=self.cache, config=self.config)
        return tuner.tune(chain)

    def tune_all(self, chains: Sequence["ComputeChain"]) -> BatchResult:
        """Tune every chain, once per distinct workload signature.

        Returns a :class:`BatchResult` whose ``reports`` align with
        ``chains``. Deterministic: worker scheduling never affects which
        schedule a signature gets (each unique chain is tuned independently
        with the same seed).
        """
        sig_variant = self.config.variant_key
        signatures = [
            workload_signature(chain, self.gpu, sig_variant) for chain in chains
        ]
        representatives: dict[str, "ComputeChain"] = {}
        for sig, chain in zip(signatures, chains):
            representatives.setdefault(sig, chain)

        unique_sigs = list(representatives)
        if unique_sigs:
            workers = min(self.max_workers, len(unique_sigs))
            with ThreadPoolExecutor(max_workers=workers) as pool:
                tuned = list(pool.map(self._tune_one, representatives.values()))
        else:
            tuned = []
        by_sig = dict(zip(unique_sigs, tuned))

        return BatchResult(
            reports=[by_sig[sig] for sig in signatures],
            signatures=signatures,
            unique=len(unique_sigs),
            duplicates=len(chains) - len(unique_sigs),
            cache_hits=sum(1 for r in tuned if r.cache_hit),
            tuning_seconds=sum(r.tuning_seconds for r in tuned),
        )
