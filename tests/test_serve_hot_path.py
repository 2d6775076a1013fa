"""A warm serve hit derives nothing the process already knows.

Once a shape has been served, another request for it only reads the
store and verifies: compiler discovery, signature digests, the rebuilt
schedule at the request shape, the exec-backend facts (lowerability,
FLOPs, renderability) and expression parsing are all memoized on
structural keys. These tests count the underlying calls, and check that the memo
keys are exactly as fine as the digests they stand in for.
"""

import functools
import hashlib
import json
import os
import shutil

import pytest

from conftest import QUICK
from repro.cache import ScheduleCache, signature
from repro.cache.signature import bucketed_signature, workload_signature
from repro.codegen import clang_runtime
from repro.frontend.partition import partition_graph
from repro.gpu.specs import A100, RTX3080
from repro.ir.chain import ComputeBlock, ComputeChain, TensorRef, attention_chain, gemm_chain
from repro.search import tuner as tuner_mod
from repro.serving import CompileService
from repro.tiling import expr as expr_mod
from repro.tiling.schedule import Schedule
from repro.workloads import build_workload, workload_names

#: Warm requests timed per test.
N_WARM = 24


class _Counter:
    """Wraps a callable and counts its calls."""

    def __init__(self, fn):
        self.fn = fn
        self.calls = 0

    def __call__(self, *args, **kwargs):
        self.calls += 1
        return self.fn(*args, **kwargs)

    def __get__(self, obj, objtype=None):
        # Bind like a function when patched onto a class as a method.
        return self if obj is None else functools.partial(self, obj)


@pytest.fixture
def warm_service():
    cache = ScheduleCache()
    # Two ragged lengths per family, served from bucket-ceiling entries,
    # and one chain tuned under its exact signature beforehand.
    ragged = [
        gemm_chain(1, 100, 128, 64, 64, name="gemm@100"),
        gemm_chain(1, 120, 128, 64, 64, name="gemm@120"),
        attention_chain(2, 80, 80, 32, 32, name="attn@80"),
        attention_chain(2, 72, 72, 32, 32, name="attn@72"),
    ]
    exact = gemm_chain(1, 96, 64, 32, 32, name="gemm-exact")
    tuner_mod.MCFuserTuner(A100, cache=cache, config=QUICK).tune(exact)
    config = QUICK.evolve(serve_workers=1, dynamic="buckets")
    with CompileService(A100, cache=cache, config=config) as svc:
        chains = [*ragged, exact]
        for chain in ragged:  # tunes (or coalesces onto) each bucket once
            svc.submit(chain).result()
        for chain in chains:  # one warm-up hit per chain
            assert svc.submit(chain).result().source in ("hot", "bucket")
        yield svc, chains


def test_warm_hits_derive_nothing_twice(warm_service, monkeypatch):
    svc, chains = warm_service
    which = _Counter(shutil.which)
    digest = _Counter(signature._digest)
    flops = _Counter(Schedule.total_flops)
    parse = _Counter(expr_mod.parse_expr)
    build = _Counter(tuner_mod.build_schedule)
    monkeypatch.setattr(shutil, "which", which)
    monkeypatch.setattr(signature, "_digest", digest)
    monkeypatch.setattr(Schedule, "total_flops", flops)
    monkeypatch.setattr(expr_mod, "parse_expr", parse)
    monkeypatch.setattr(tuner_mod, "build_schedule", build)

    sources = set()
    for i in range(N_WARM):
        result = svc.submit(chains[i % len(chains)]).result()
        sources.add(result.source)
        assert result.report.chain is chains[i % len(chains)]

    assert sources == {"hot", "bucket"}
    assert which.calls == 0
    assert digest.calls == 0
    assert flops.calls == 0
    assert parse.calls == 0
    # Schedules are immutable, so the request-shape rebuild is shared too.
    assert build.calls == 0


def test_warm_hits_hash_no_chain_parts(warm_service, monkeypatch):
    """Memo keys hold a chain's stored structure key, which hashed its
    blocks and tensors when the chain was built: warm hits hash none."""
    svc, chains = warm_service
    block_hash = _Counter(ComputeBlock.__hash__)
    tensor_hash = _Counter(TensorRef.__hash__)
    monkeypatch.setattr(ComputeBlock, "__hash__", block_hash)
    monkeypatch.setattr(TensorRef, "__hash__", tensor_hash)

    sources = set()
    for i in range(N_WARM):
        sources.add(svc.submit(chains[i % len(chains)]).result().source)

    assert sources == {"hot", "bucket"}
    assert (block_hash.calls, tensor_hash.calls) == (0, 0)
    # The counters do count: building a chain hashes its parts.
    chains[0].with_loops({"m": 64})
    assert block_hash.calls > 0 and tensor_hash.calls > 0


# -- signature memo keys ----------------------------------------------------------


def _oracle_fingerprint(chain) -> dict:
    """The canonical chain fingerprint, built straight from the chain."""
    return {
        "loops": sorted(chain.loops.items()),
        "batch": chain.batch,
        "dtype": chain.dtype,
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
            for b in chain.blocks
        ],
        "tensors": sorted(
            (ref.name, list(ref.dims), ref.role) for ref in chain.tensors.values()
        ),
    }


def _oracle_digest(payload: dict) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.blake2b(blob.encode(), digest_size=16).hexdigest()


def _oracle_exact(chain, gpu, variant="mcfuser") -> str:
    return _oracle_digest({
        "version": signature.SIGNATURE_VERSION,
        "chain": _oracle_fingerprint(chain),
        "gpu": signature.gpu_fingerprint(gpu),
        "variant": variant,
    })


def _oracle_bucketed(chain, gpu, variant="mcfuser", dynamic_loops=("m", "n")) -> str:
    dyn = signature.bucket_dims(chain, dynamic_loops)
    fingerprint = _oracle_fingerprint(chain)
    fingerprint["loops"] = sorted({**dict(fingerprint["loops"]), **dyn}.items())
    return _oracle_digest({
        "version": signature.SIGNATURE_VERSION,
        "chain": fingerprint,
        "gpu": signature.gpu_fingerprint(gpu),
        "variant": variant,
        "dynamic_dims": sorted(dyn.items()),
    })


def _all_chains() -> list[ComputeChain]:
    chains = [build_workload(name) for name in workload_names(level="chain")]
    for name in workload_names(level="model"):
        chains.extend(sg.chain for sg in partition_graph(build_workload(name), A100).subgraphs)
    return chains


def test_memoized_signatures_match_unmemoized_digests():
    """Every registry chain and zoo fusion group, asked twice (memo miss,
    then hit), gets the digest the canonical payload hashes to."""
    for chain in _all_chains():
        for gpu, variant in ((A100, "mcfuser"), (RTX3080, "chimera")):
            exact = _oracle_exact(chain, gpu, variant)
            bucketed = _oracle_bucketed(chain, gpu, variant)
            for _ in range(2):
                assert workload_signature(chain, gpu, variant) == exact, chain.name
                assert bucketed_signature(chain, gpu, variant) == bucketed, chain.name
        assert bucketed_signature(chain, A100, "mcfuser", ["n"]) == _oracle_bucketed(
            chain, A100, "mcfuser", ("n",)
        )


def test_renamed_structural_twins_share_signatures():
    a = attention_chain(8, 200, 200, 64, 64, name="layer0")
    b = attention_chain(8, 200, 200, 64, 64, name="layer11")
    assert a.structure_key() == b.structure_key()
    assert workload_signature(a, A100) == workload_signature(b, A100)
    assert bucketed_signature(a, A100) == bucketed_signature(b, A100)


def _rescaled(chain: ComputeChain, scale: float) -> ComputeChain:
    blocks = tuple(
        ComputeBlock(b.name, b.inputs, b.output, b.spatial, b.reduction,
                     b.softmax_over, b.epilogue, scale if i == 0 else b.scale)
        for i, b in enumerate(chain.blocks)
    )
    return ComputeChain(chain.name, chain.loops, blocks, chain.tensors,
                        batch=chain.batch, dtype=chain.dtype)


@pytest.mark.parametrize("variant", [
    "extent",
    "dtype",
    "epilogue",
    "scale",
])
def test_one_structural_difference_splits_signatures(variant):
    base = gemm_chain(1, 200, 256, 64, 64)
    twin = {
        # k is static under bucketing, so both keys must split.
        "extent": lambda: gemm_chain(1, 200, 256, 128, 64),
        "dtype": lambda: gemm_chain(1, 200, 256, 64, 64, dtype="float32"),
        "epilogue": lambda: gemm_chain(1, 200, 256, 64, 64, epilogue="relu"),
        "scale": lambda: _rescaled(base, 0.5),
    }[variant]()
    assert base.structure_key() != twin.structure_key()
    assert workload_signature(base, A100) != workload_signature(twin, A100)
    assert bucketed_signature(base, A100) != bucketed_signature(twin, A100)
    assert workload_signature(twin, A100) == _oracle_exact(twin, A100)


# -- compiler discovery -----------------------------------------------------------


def _fake_cc(path) -> str:
    path.write_text("#!/bin/sh\nexit 0\n")
    path.chmod(0o755)
    return str(path)


def test_compiler_discovery_is_memoized_per_env(monkeypatch, tmp_path):
    which = _Counter(shutil.which)
    monkeypatch.setattr(shutil, "which", which)
    first = _fake_cc(tmp_path / "cc-one")
    second = _fake_cc(tmp_path / "cc-two")

    monkeypatch.setenv("REPRO_CC", first)
    assert clang_runtime.find_compiler() == first
    assert clang_runtime.find_compiler() == first
    assert which.calls == 1

    monkeypatch.setenv("REPRO_CC", second)
    assert clang_runtime.find_compiler() == second
    assert which.calls == 2

    monkeypatch.setenv("PATH", str(tmp_path) + os.pathsep + os.environ["PATH"])
    assert clang_runtime.find_compiler() == second
    assert which.calls == 3


def test_verified_hits_compute_the_reference_once(monkeypatch):
    """Verified warm hits share one unfused reference per chain structure:
    each hit checks its schedule against it, but only the first computes
    it."""
    cache = ScheduleCache()
    chain = gemm_chain(1, 96, 64, 32, 32, name="verified-hit")
    tuner_mod.MCFuserTuner(A100, cache=cache, config=QUICK).tune(chain)
    reference = _Counter(ComputeChain.reference)
    monkeypatch.setattr(ComputeChain, "reference", reference)
    config = QUICK.evolve(serve_workers=1, verify="best")
    with CompileService(A100, cache=cache, config=config) as svc:
        for _ in range(5):
            result = svc.submit(chain).result()
            assert result.source == "hot" and result.report.verified
    assert reference.calls == 1
