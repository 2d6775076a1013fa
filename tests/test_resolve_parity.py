"""The tuner and the compile service walk one cache ladder.

``MCFuserTuner.tune`` and ``CompileService.submit`` both resolve a request
with :func:`~repro.cache.cache.resolve` and finish it with
:func:`~repro.search.tuner.finish_report`. Fed the same chain sequence,
each against its own memory-only cache, they must land on the same rung
and hand back the same schedule and report fields at every step.
"""

import pytest

from conftest import QUICK
from repro.cache import ScheduleCache
from repro.gpu.specs import A100
from repro.ir.chain import gemm_chain
from repro.search.tuner import MCFuserTuner
from repro.serving import CompileService

#: Service source -> ladder rung (the tuner's flags map onto the same names).
RUNG_OF_SOURCE = {"hot": "exact", "bucket": "bucket", "tuned": "miss"}

#: Ragged 300, 400 (same bucket), 300 again, 600 (new bucket), then a
#: chain whose entry was written under its exact key beforehand.
SEQUENCE = (300, 400, 300, 600, 200)
WARM_EXACT = 200

EXPECTED_RUNGS = {
    "off": ["miss", "miss", "exact", "miss", "exact"],
    "buckets": ["miss", "bucket", "bucket", "miss", "exact"],
}


def ragged(m: int):
    return gemm_chain(1, m, 96, 32, 32, name=f"parity-{m}")


def tuner_rung(report) -> str:
    if report.bucket_hit:
        return "bucket"
    return "exact" if report.cache_hit else "miss"


def fingerprint(report) -> tuple:
    schedule = report.best_schedule
    return (
        schedule.expr.render(),
        tuple(sorted(schedule.tiles.items())),
        schedule.optimized,
        schedule.chain.loops["m"],
        report.dynamic,
        tuple(sorted(report.bucket.items())),
        report.bucket_hit,
        report.verified,
        report.workers,
        report.exec_backend,
    )


def warmed_cache(config) -> ScheduleCache:
    """A memory-only cache holding WARM_EXACT under its exact key."""
    cache = ScheduleCache(path=None)
    MCFuserTuner(A100, cache=cache, config=config.evolve(dynamic="off")).tune(
        ragged(WARM_EXACT)
    )
    return cache


@pytest.mark.parametrize("verify", ["off", "best"])
@pytest.mark.parametrize("dynamic", ["off", "buckets"])
def test_tuner_and_service_agree(dynamic, verify):
    config = QUICK.evolve(dynamic=dynamic, verify=verify, serve_workers=1)

    tuner_cache = warmed_cache(config)
    tuned = [
        MCFuserTuner(A100, cache=tuner_cache, config=config).tune(ragged(m))
        for m in SEQUENCE
    ]
    with CompileService(A100, cache=warmed_cache(config), config=config) as svc:
        served = [svc.compile(ragged(m), timeout=120) for m in SEQUENCE]

    assert [tuner_rung(r) for r in tuned] == EXPECTED_RUNGS[dynamic]
    assert [RUNG_OF_SOURCE[r.source] for r in served] == EXPECTED_RUNGS[dynamic]
    for m, mine, theirs in zip(SEQUENCE, tuned, served):
        assert fingerprint(mine) == fingerprint(theirs.report), m
        assert mine.best_schedule.chain.loops["m"] == m
        assert mine.verified == (verify != "off")
